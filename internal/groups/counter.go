package groups

import "fairsqg/internal/graph"

// Counter answers group-count queries for one (graph, Set) pair. Set.Count
// probes every group's member map per answer node — O(|answer|·m) map
// lookups; a Counter instead builds a dense node→group array once, so each
// Counts call is one array read per answer node. Verification calls Count
// on every instance (twice, before this existed: feasibility then
// coverage), which made the probing the constant factor in front of every
// lattice node.
//
// A Counter is cheap to keep per Runner; it is not safe for concurrent use
// because the counts buffer is reused across calls.
type Counter struct {
	set Set
	// group[id[v]] is 1+“index of the group containing v”, or 0 when v
	// belongs to no group. Groups are disjoint (Set.Validate enforces it), so
	// one slot suffices. id is the shared node index of the partition the
	// groups were cut from (Set.partition) and group places its cells in the
	// set; for any other set id is the counter's own and group the identity.
	id     []int32
	group  []int32
	counts []int
}

// NewCounter indexes a group set over a graph with numNodes nodes. Nodes
// outside every group — including IDs past numNodes, which cannot occur in
// answers from the same graph — count toward no group.
func NewCounter(numNodes int, s Set) *Counter {
	c := &Counter{set: s, counts: make([]int, len(s))}
	if p := s.partition(); p != nil {
		c.id, c.group = p.id, make([]int32, p.cells+1)
		for i := range s {
			c.group[s[i].cell+1] = int32(i) + 1
		}
		return c
	}
	c.id, c.group = make([]int32, numNodes), make([]int32, len(s)+1)
	for i := range s {
		c.group[i+1] = int32(i) + 1
		for v := range s[i].Members {
			if int(v) < numNodes {
				c.id[v] = int32(i) + 1
			}
		}
	}
	return c
}

// Clone returns a counter over the same node→group index with its own
// counts buffer, for use on another goroutine.
func (c *Counter) Clone() *Counter {
	return &Counter{set: c.set, id: c.id, group: c.group, counts: make([]int, len(c.counts))}
}

// Counts returns, for each group, |answer ∩ P_i| — the same values as
// Set.Count (Group.Members is read-only). The returned slice is the Counter's
// internal buffer: valid until the next Counts call, not to be retained.
func (c *Counter) Counts(answer []graph.NodeID) []int {
	for i := range c.counts {
		c.counts[i] = 0
	}
	for _, v := range answer {
		if int(v) < len(c.id) {
			if g := c.group[c.id[v]]; g != 0 {
				c.counts[g-1]++
			}
		}
	}
	return c.counts
}
