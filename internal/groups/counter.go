package groups

import "fairsqg/internal/graph"

// Counter answers group-count queries for one (graph, Set) pair. Set.Count
// probes every group per answer node — O(|answer|·m) lookups; a Counter
// reads the partition the groups were cut from, or builds a dense
// node→group array once for any other set, so each Counts call is a few
// array reads per answer node. Verification calls Count
// on every instance (twice, before this existed: feasibility then
// coverage), which made the probing the constant factor in front of every
// lattice node.
//
// A Counter is cheap to keep per Runner; it is not safe for concurrent use
// because the counts buffer is reused across calls.
type Counter struct {
	set Set
	// group[id[v]+1] is 1+“index of the group containing v”, or 0 when v
	// belongs to no group. Over the partition every group was cut from
	// (Set.partition), id is its row, group places each domain entry's cell
	// in the set, and v must pass the partition's label test too; for any
	// other set id is the counter's own index (1+ the group, 0 for none) and
	// group[k+1] is k. Groups are disjoint (Set.Validate enforces it), so one
	// slot suffices.
	part   *partition
	id     graph.Table[int32]
	group  []int32
	counts []int
}

// NewCounter indexes a group set over a graph with numNodes nodes. Nodes
// outside every group — including IDs past numNodes, which cannot occur in
// answers from the same graph — count toward no group.
func NewCounter(numNodes int, s Set) *Counter {
	c := &Counter{set: s, counts: make([]int, len(s))}
	if c.part = s.partition(); c.part != nil {
		place := make([]int32, len(c.part.sizes)+1)
		for i := range s {
			place[s[i].cell+1] = int32(i) + 1
		}
		c.id, c.group = c.part.row, make([]int32, len(c.part.cell))
		for d, k := range c.part.cell {
			c.group[d] = place[k]
		}
		return c
	}
	id := make([]int32, numNodes)
	c.id, c.group = graph.TableOf(id), make([]int32, len(s)+2)
	for i := range s {
		c.group[i+2] = int32(i) + 1
		s[i].members(func(v graph.NodeID) bool {
			if int(v) < numNodes {
				id[v] = int32(i) + 1
			}
			return true
		})
	}
	return c
}

// Clone returns a counter over the same node→group index with its own
// counts buffer, for use on another goroutine.
func (c *Counter) Clone() *Counter {
	return &Counter{set: c.set, part: c.part, id: c.id, group: c.group, counts: make([]int, len(c.counts))}
}

// Counts returns, for each group, |answer ∩ P_i| — the same values as
// Set.Count (Group.Members is read-only). The returned slice is the Counter's
// internal buffer: valid until the next Counts call, not to be retained.
func (c *Counter) Counts(answer []graph.NodeID) []int {
	for i := range c.counts {
		c.counts[i] = 0
	}
	check := c.part != nil && c.part.labels != nil
	for _, v := range answer {
		if int(v) < c.id.Len() {
			if g := c.group[c.id.At(int(v))+1]; g != 0 && (!check || c.part.holds(v)) {
				c.counts[g-1]++
			}
		}
	}
	return c.counts
}
