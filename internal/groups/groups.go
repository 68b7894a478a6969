// Package groups models the disjoint node groups P = {P_1..P_m} of the
// FairSQG problem together with their per-group coverage constraints c_i,
// and provides builders for the fairness policies the paper instantiates
// (equal opportunity and the 80%-rule disparate-impact constraint).
package groups

import (
	"fmt"
	"slices"
	"sort"

	"fairsqg/internal/graph"
)

// Group is one node group P_i with its coverage constraint c_i.
type Group struct {
	Name string
	// Members is P_i; read-only on a group ByAttribute or ByValues returned:
	// Validate and Counter go by the partition it was cut from, not by edits.
	Members map[graph.NodeID]bool
	// Want is the coverage constraint c_i: an instance is feasible only if
	// its answer covers at least Want members, and the coverage measure
	// penalizes deviation from exactly Want.
	Want int
	// from and cell are set by ByAttribute and ByValues: the partition the
	// group was cut from and its place there. Cells of one partition are
	// disjoint by construction: Validate skips them, a Counter shares the
	// node index.
	from *partition
	cell int32
}

// partition is the node index of one ByAttribute or ByValues call, shared
// read-only: id[v] is 1 + the cell of the group holding node v, 0 when none
// does.
type partition struct {
	id    []int32
	cells int
}

// partition returns the partition every group of s was cut from, nil when
// they do not share one.
func (s Set) partition() *partition {
	for i := range s {
		if s[i].from != s[0].from {
			return nil
		}
	}
	if len(s) == 0 {
		return nil
	}
	return s[0].from
}

// Size returns |P_i|.
func (g *Group) Size() int { return len(g.Members) }

// Set is an ordered collection of disjoint groups.
type Set []Group

// TotalWant returns C = Σ c_i.
func (s Set) TotalWant() int {
	c := 0
	for i := range s {
		c += s[i].Want
	}
	return c
}

// Validate checks that groups are non-empty, pairwise disjoint and that
// each constraint satisfies 0 <= c_i <= |P_i|.
//
// It runs several times per job, so disjointness is checked in place: each
// pair of groups walks the smaller member set and probes the larger, with
// no scratch map of every member (m is a handful).
func (s Set) Validate() error {
	for i := range s {
		g := &s[i]
		if len(g.Members) == 0 {
			return fmt.Errorf("groups: group %q is empty", g.Name)
		}
		if g.Want < 0 || g.Want > len(g.Members) {
			return fmt.Errorf("groups: group %q: constraint %d outside [0,%d]", g.Name, g.Want, len(g.Members))
		}
		for j := 0; j < i; j++ {
			if g.from != nil && g.from == s[j].from && g.cell != s[j].cell {
				continue // two cells of one partition
			}
			walk, probe := s[j].Members, g.Members
			if len(probe) < len(walk) {
				walk, probe = probe, walk
			}
			for v := range walk {
				if _, dup := probe[v]; dup {
					return fmt.Errorf("groups: node %d belongs to both %q and %q; groups must be disjoint", v, s[j].Name, g.Name)
				}
			}
		}
	}
	return nil
}

// Count returns, for each group, |answer ∩ P_i|.
func (s Set) Count(answer []graph.NodeID) []int {
	counts := make([]int, len(s))
	for _, v := range answer {
		for i := range s {
			if s[i].Members[v] {
				counts[i]++
				break // groups are disjoint
			}
		}
	}
	return counts
}

// ByAttribute partitions the nodes with the given label into one group per
// distinct value of attr. Nodes lacking the attribute join no group. Groups
// are returned sorted by value; constraints are left at zero.
func ByAttribute(g *graph.Graph, label, attr string) Set {
	set := cut(g, label, attr, nil)
	// The names share their prefix, so this is the order of the values.
	sort.Slice(set, func(a, b int) bool { return set[a].Name < set[b].Name })
	return set
}

// ByValues is ByAttribute restricted to the listed attribute values, in the
// given order; values with no members are skipped. Only the listed values'
// groups are built.
func ByValues(g *graph.Graph, label, attr string, values ...string) Set {
	cells := cut(g, label, attr, values)
	var set Set
	for _, v := range values {
		if k := slices.IndexFunc(cells, func(c Group) bool { return c.Name == attr+"="+v && len(c.Members) > 0 }); k >= 0 {
			set = append(set, cells[k])
		}
	}
	return set
}

// cut partitions the nodes with the given label by their value of attr, one
// cell per value: per listed value in the order listed (a value listed
// twice fills its last cell), or, with no list, per value present in the
// order met.
func cut(g *graph.Graph, label, attr string, values []string) Set {
	slot, names := make(map[string]int, len(values)), values
	for k, v := range values {
		slot[v] = k
	}
	nodes := g.NodesByLabel(label)
	aid := g.AttrIDOf(attr)
	// First pass: every node's cell and the cells' sizes, so that each
	// member map is made at its final size instead of rehashing its way up.
	sizes := make([]int, len(names))
	slotOf := make([]int32, len(nodes))
	for i, v := range nodes {
		slotOf[i] = -1
		val := g.AttrValue(v, aid)
		if val.IsNull() {
			continue
		}
		key := val.String()
		k, ok := slot[key]
		if !ok {
			if values != nil {
				continue
			}
			k = len(names)
			slot[key] = k
			names, sizes = append(names, key), append(sizes, 0)
		}
		slotOf[i] = int32(k)
		sizes[k]++
	}
	set := make(Set, len(names))
	part := &partition{id: make([]int32, g.NumNodes()), cells: len(names)}
	for k, n := range names {
		set[k] = Group{Name: attr + "=" + n, Members: make(map[graph.NodeID]bool, sizes[k]), from: part, cell: int32(k)}
	}
	for i, v := range nodes {
		if k := slotOf[i]; k >= 0 {
			set[k].Members[v] = true
			part.id[v] = k + 1
		}
	}
	return set
}

// EqualOpportunity assigns the same constraint c to every group: the
// "Equal Opportunity" policy of the paper. It returns the set for chaining.
func EqualOpportunity(s Set, c int) Set {
	for i := range s {
		s[i].Want = c
	}
	return s
}

// SplitEvenly distributes a total coverage budget C evenly across the
// groups (the paper's Fig. 9(f)/(g)/(h) setting); any remainder goes to the
// earliest groups.
func SplitEvenly(s Set, total int) Set {
	if len(s) == 0 {
		return s
	}
	base, rem := total/len(s), total%len(s)
	for i := range s {
		s[i].Want = base
		if i < rem {
			s[i].Want++
		}
	}
	return s
}

// DisparateImpact configures constraints implementing the "80% rule": given
// a majority-group target c, every other group must be covered with at
// least ceil(ratio*c) nodes. majority names the majority group.
func DisparateImpact(s Set, majority string, c int, ratio float64) (Set, error) {
	found := false
	minor := int(ratio*float64(c) + 0.999999)
	for i := range s {
		if s[i].Name == majority {
			s[i].Want = c
			found = true
		} else {
			s[i].Want = minor
		}
	}
	if !found {
		return nil, fmt.Errorf("groups: majority group %q not in set", majority)
	}
	return s, nil
}
