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
	// Members is P_i for a group the caller builds. Groups ByAttribute and
	// ByValues return have none (nil): they read the partition they were cut
	// from, so ask them through Size and Has.
	Members map[graph.NodeID]bool
	// Want is the coverage constraint c_i: an instance is feasible only if
	// its answer covers at least Want members, and the coverage measure
	// penalizes deviation from exactly Want.
	Want int
	// from and cell are set by ByAttribute and ByValues: the partition the
	// group was cut from and its place there. Cells of one partition are
	// disjoint by construction: Validate skips them, a Counter shares the
	// partition.
	from *partition
	cell int32
}

// partition is one ByAttribute or ByValues call's view of a generation's
// AttrRow for the attribute, shared read-only: a node of the label is in
// cell cell[row[v]+1]-1, in none when that reads 0. Its own arrays are per
// active-domain entry and per cell, none per node; the row and the packed
// label table it reads are the generation's (not the Graph itself, which a
// runner moving to the next generation lets go).
type partition struct {
	// labels is graph.PackLabelPos per node, nil when every node holding
	// the attribute has the label: then the row alone decides.
	labels *graph.Table[uint64]
	label  graph.LabelID
	row    graph.Table[int32]
	cell   []int32 // per domain entry + 1
	sizes  []int   // per cell
}

// holds reports whether v, a node of the row, has the partition's label.
func (p *partition) holds(v graph.NodeID) bool {
	return p.labels == nil || graph.LabelID(p.labels.At(int(v))>>32) == p.label
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
func (g *Group) Size() int {
	if g.from != nil {
		return g.from.sizes[g.cell]
	}
	return len(g.Members)
}

// Has reports whether v belongs to P_i.
func (g *Group) Has(v graph.NodeID) bool {
	if p := g.from; p != nil {
		return int(v) < p.row.Len() && p.cell[p.row.At(int(v))+1] == g.cell+1 && p.holds(v)
	}
	return g.Members[v]
}

// members calls yield on every member of P_i until it returns false.
func (g *Group) members(yield func(graph.NodeID) bool) {
	for v := range g.Members {
		if !yield(v) {
			return
		}
	}
	for v := 0; g.from != nil && v < g.from.row.Len(); v++ {
		if g.Has(graph.NodeID(v)) && !yield(graph.NodeID(v)) {
			return
		}
	}
}

// Set is an ordered collection of disjoint groups.
type Set []Group

// Bytes is what the set holds itself, for whoever keeps it around: 48 bytes
// a group plus its name and, for a group the caller built, 40 a member; a
// partition's arrays, per active-domain entry and per cell (the row and
// label table it reads are the graph's).
func (s Set) Bytes() (n int64) {
	for i := range s {
		n += int64(48 + len(s[i].Name) + 40*len(s[i].Members))
	}
	if p := s.partition(); p != nil {
		n += int64(4*len(p.cell) + 8*len(p.sizes))
	}
	return n
}

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
// pair of groups walks the smaller and probes the larger, with no scratch
// map of every member (m is a handful); two cells of one partition are
// disjoint without a walk.
func (s Set) Validate() error {
	for i := range s {
		g := &s[i]
		if g.Size() == 0 {
			return fmt.Errorf("groups: group %q is empty", g.Name)
		}
		if g.Want < 0 || g.Want > g.Size() {
			return fmt.Errorf("groups: group %q: constraint %d outside [0,%d]", g.Name, g.Want, g.Size())
		}
		for j := 0; j < i; j++ {
			if g.from != nil && g.from == s[j].from && g.cell != s[j].cell {
				continue // two cells of one partition
			}
			walk, probe := &s[j], g
			if probe.Size() < walk.Size() {
				walk, probe = probe, walk
			}
			dup := graph.InvalidNode
			walk.members(func(v graph.NodeID) bool {
				if probe.Has(v) {
					dup = v
				}
				return dup < 0
			})
			if dup >= 0 {
				return fmt.Errorf("groups: node %d belongs to both %q and %q; groups must be disjoint", dup, s[j].Name, g.Name)
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
			if s[i].Has(v) {
				counts[i]++
				break // groups are disjoint
			}
		}
	}
	return counts
}

// ByAttribute partitions the nodes with the given label into one group per
// distinct value of attr, keyed by Value.String (a number and a string of
// the same text share a group). Nodes lacking the attribute join no group.
// Groups are returned sorted by value; constraints are left at zero.
func ByAttribute(g *graph.Graph, label, attr string) Set {
	set := cut(g, label, attr)
	// The names share their prefix, so this is the order of the values.
	sort.Slice(set, func(a, b int) bool { return set[a].Name < set[b].Name })
	return set
}

// ByValues is ByAttribute restricted to the listed attribute values, in the
// given order; values with no members are skipped.
func ByValues(g *graph.Graph, label, attr string, values ...string) Set {
	cells := cut(g, label, attr)
	var set Set
	for _, v := range values {
		if k := slices.IndexFunc(cells, func(c Group) bool { return c.Name == attr+"="+v }); k >= 0 {
			set = append(set, cells[k])
		}
	}
	return set
}

// cut partitions the nodes with the given label by their value of attr, one
// cell per value text present on them, in domain order. It reads the
// generation's AttrRow and counts each domain entry's holders of the label
// by binary search over the (label, attr) sorted index, whose nodes run in
// domain order: per active-domain entry, not per node.
func cut(g *graph.Graph, label, attr string) Set {
	aid, lid := g.AttrIDOf(attr), g.LookupLabel(label)
	ix := g.SortedIndex(lid, aid)
	if !ix.Valid() {
		return nil
	}
	dom, row := g.ActiveDomainByID(aid), g.AttrRow(aid)
	part := &partition{label: lid, row: row.IDs, cell: make([]int32, len(dom)+1)}
	slot := make(map[string]int32, len(dom))
	var set Set
	lo := sort.Search(ix.Len(), func(i int) bool { return row.IDs.At(int(ix.At(i))) != graph.NoValue })
	if ix.Len()-lo != row.Held {
		labels := g.LabelPosTable()
		part.labels = &labels
	}
	for d := range dom {
		hi := lo + sort.Search(ix.Len()-lo, func(i int) bool { return row.IDs.At(int(ix.At(lo+i))) > int32(d) })
		if hi == lo {
			continue
		}
		key := dom[d].String()
		k, ok := slot[key]
		if !ok {
			k = int32(len(set))
			slot[key] = k
			set = append(set, Group{Name: attr + "=" + key, from: part, cell: k})
			part.sizes = append(part.sizes, 0)
		}
		part.cell[d+1] = k + 1
		part.sizes[k] += hi - lo
		lo = hi
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
