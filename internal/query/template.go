// Package query models FairSQG query templates and query instances: a
// template is a connected query graph whose node predicates carry range
// variables and whose edges may carry Boolean edge variables; an instance
// binds every variable to a constant or the wildcard '_'. The package also
// implements the refinement preorder over instantiations that the
// generation algorithms explore (Section IV of the paper).
package query

import (
	"fmt"
	"sort"

	"fairsqg/internal/graph"
)

// VarKind discriminates range variables from edge variables.
type VarKind uint8

const (
	// RangeVar parameterizes a node literal "u.A op x".
	RangeVar VarKind = iota
	// EdgeVar is the Boolean presence variable of a query edge.
	EdgeVar
)

// VarID indexes a template's variable table.
type VarID int

// Literal is one search predicate "u.A op rhs" on a template node. When Var
// is >= 0 the right-hand side is the range variable Var; otherwise Const is
// a fixed constant.
type Literal struct {
	Attr  string
	Op    graph.Op
	Var   VarID
	Const graph.Value
}

// Parameterized reports whether the literal's right-hand side is a variable.
func (l Literal) Parameterized() bool { return l.Var >= 0 }

// TNode is a template query node.
type TNode struct {
	Name     string
	Label    string
	Literals []Literal
}

// TEdge is a template query edge. Var >= 0 marks a parameterized edge whose
// presence is decided by the instantiation; Var < 0 marks a fixed edge.
type TEdge struct {
	From, To int
	Label    string
	Var      VarID
}

// Parameterized reports whether the edge carries an edge variable.
func (e TEdge) Parameterized() bool { return e.Var >= 0 }

// Variable is one entry of a template's variable table. Range variables own
// a selectivity-ordered value ladder (most relaxed first) installed by
// BindDomains; edge variables have an implicit {absent, present} ladder.
type Variable struct {
	Name string
	Kind VarKind
	// Range-variable fields.
	Node   int
	Attr   string
	Op     graph.Op
	Ladder []graph.Value
	// Edge-variable field.
	Edge int
}

// Template is a query template Q(u_o): a connected query graph with a
// designated output node and a variable table.
type Template struct {
	Name   string
	Nodes  []TNode
	Edges  []TEdge
	Output int
	Vars   []Variable
}

// NumRangeVars returns |X_L|.
func (t *Template) NumRangeVars() int {
	n := 0
	for i := range t.Vars {
		if t.Vars[i].Kind == RangeVar {
			n++
		}
	}
	return n
}

// NumEdgeVars returns |X_E|.
func (t *Template) NumEdgeVars() int { return len(t.Vars) - t.NumRangeVars() }

// Node returns the index of the named template node, or -1.
func (t *Template) Node(name string) int {
	for i := range t.Nodes {
		if t.Nodes[i].Name == name {
			return i
		}
	}
	return -1
}

// Var returns the index of the named variable, or -1.
func (t *Template) Var(name string) VarID {
	for i := range t.Vars {
		if t.Vars[i].Name == name {
			return VarID(i)
		}
	}
	return -1
}

// Validate checks structural well-formedness: the output node exists, edge
// endpoints are in range, variables are wired to existing nodes/edges, and
// the template graph (with every parameterized edge present) is connected.
func (t *Template) Validate() error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("query: template %q has no nodes", t.Name)
	}
	if t.Output < 0 || t.Output >= len(t.Nodes) {
		return fmt.Errorf("query: template %q: output node %d out of range", t.Name, t.Output)
	}
	seen := map[string]bool{}
	for i, n := range t.Nodes {
		if n.Name == "" {
			return fmt.Errorf("query: template %q: node %d has no name", t.Name, i)
		}
		if seen[n.Name] {
			return fmt.Errorf("query: template %q: duplicate node name %q", t.Name, n.Name)
		}
		seen[n.Name] = true
		if n.Label == "" {
			return fmt.Errorf("query: template %q: node %q has no label", t.Name, n.Name)
		}
		for _, l := range n.Literals {
			if l.Op == graph.OpInvalid {
				return fmt.Errorf("query: template %q: node %q: literal on %q has no operator", t.Name, n.Name, l.Attr)
			}
			if l.Var >= 0 {
				if int(l.Var) >= len(t.Vars) {
					return fmt.Errorf("query: template %q: node %q references unknown variable %d", t.Name, n.Name, l.Var)
				}
				v := t.Vars[l.Var]
				if v.Kind != RangeVar || v.Node != i || v.Attr != l.Attr {
					return fmt.Errorf("query: template %q: variable %q not wired to node %q attribute %q", t.Name, v.Name, n.Name, l.Attr)
				}
			}
		}
	}
	for i, e := range t.Edges {
		if e.From < 0 || e.From >= len(t.Nodes) || e.To < 0 || e.To >= len(t.Nodes) {
			return fmt.Errorf("query: template %q: edge %d endpoint out of range", t.Name, i)
		}
		if e.Var >= 0 {
			if int(e.Var) >= len(t.Vars) {
				return fmt.Errorf("query: template %q: edge %d references unknown variable %d", t.Name, i, e.Var)
			}
			v := t.Vars[e.Var]
			if v.Kind != EdgeVar || v.Edge != i {
				return fmt.Errorf("query: template %q: variable %q not wired to edge %d", t.Name, v.Name, i)
			}
		}
	}
	for vi, v := range t.Vars {
		switch v.Kind {
		case RangeVar:
			if v.Node < 0 || v.Node >= len(t.Nodes) {
				return fmt.Errorf("query: template %q: range variable %q: node out of range", t.Name, v.Name)
			}
			found := false
			for _, l := range t.Nodes[v.Node].Literals {
				if l.Var == VarID(vi) {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("query: template %q: range variable %q not referenced by any literal", t.Name, v.Name)
			}
		case EdgeVar:
			if v.Edge < 0 || v.Edge >= len(t.Edges) || t.Edges[v.Edge].Var != VarID(vi) {
				return fmt.Errorf("query: template %q: edge variable %q not wired to its edge", t.Name, v.Name)
			}
		}
	}
	if !t.connectedWithAllEdges() {
		return fmt.Errorf("query: template %q is not connected", t.Name)
	}
	return nil
}

// connectedWithAllEdges checks connectivity treating every edge (fixed and
// parameterized) as present and undirected.
func (t *Template) connectedWithAllEdges() bool {
	if len(t.Nodes) == 0 {
		return false
	}
	adj := make([][]int, len(t.Nodes))
	for _, e := range t.Edges {
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
	}
	seen := make([]bool, len(t.Nodes))
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == len(t.Nodes)
}

// DomainOptions controls how BindDomains builds range-variable ladders.
type DomainOptions struct {
	// MaxValues caps the ladder length per variable; 0 means no cap. When a
	// label-restricted active domain exceeds the cap it is subsampled
	// evenly, always keeping the extremes (a cap of 1 keeps the median).
	MaxValues int
}

// BindDomains installs a value ladder for every range variable from the
// label-restricted active domain of its attribute in g: the distinct values
// T(v).A takes over nodes v with L(v) equal to the variable's node label.
// Ladders are ordered from most relaxed to most refined (ascending for
// >=/>, descending for <=/<; ascending for = where every value is a
// one-step refinement of the wildcard). The graph must be frozen.
func (t *Template) BindDomains(g *graph.Graph, opts DomainOptions) error {
	return t.bindDomains(g, opts, false)
}

// BindMissingDomains is BindDomains for the range variables that have no
// ladder yet: ladders pinned in the template text ("ladder $x 5 10") or set
// with SetLadder are kept. It is what runs a parsed template — the CLI and
// the server's job builder both call it, so the same template text binds
// the same ladders on either path. Binding scans the frozen graph
// deterministically, so two processes holding byte-identical snapshots
// derive identical ladders.
func (t *Template) BindMissingDomains(g *graph.Graph, opts DomainOptions) error {
	return t.bindDomains(g, opts, true)
}

func (t *Template) bindDomains(g *graph.Graph, opts DomainOptions, keepPinned bool) error {
	for vi := range t.Vars {
		v := &t.Vars[vi]
		if v.Kind != RangeVar || (keepPinned && len(v.Ladder) > 0) {
			continue
		}
		label := t.Nodes[v.Node].Label
		dom := labelRestrictedDomain(g, label, v.Attr)
		if len(dom) == 0 {
			return fmt.Errorf("query: template %q: variable %q: attribute %q has empty active domain for label %q",
				t.Name, v.Name, v.Attr, label)
		}
		if opts.MaxValues > 0 && len(dom) > opts.MaxValues {
			dom = subsample(dom, opts.MaxValues)
		}
		switch v.Op {
		case graph.OpLT, graph.OpLE:
			// Most relaxed binding is the largest value.
			rev := make([]graph.Value, len(dom))
			for i := range dom {
				rev[i] = dom[len(dom)-1-i]
			}
			v.Ladder = rev
		default:
			v.Ladder = dom
		}
	}
	return nil
}

// labelRestrictedDomain computes the sorted distinct values of attr over the
// nodes with the given label. When the graph carries a sorted index for the
// (label, attr) pair the values are read off it pre-sorted; otherwise a scan
// and sort does the same work.
func labelRestrictedDomain(g *graph.Graph, label, attr string) []graph.Value {
	aid := g.AttrIDOf(attr)
	if ix := g.SortedIndex(g.LookupLabel(label), aid); ix.Valid() {
		var out []graph.Value
		for i := 0; i < ix.Len(); i++ {
			v := ix.ValueAt(i)
			if v.IsNull() {
				continue // absent attributes sort first in the permutation
			}
			if len(out) == 0 || !v.Equal(out[len(out)-1]) {
				out = append(out, v)
			}
		}
		return out
	}
	var vals []graph.Value
	for _, v := range g.NodesByLabel(label) {
		if a := g.AttrValue(v, aid); !a.IsNull() {
			vals = append(vals, a)
		}
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i].Compare(vals[j]) < 0 })
	out := vals[:0]
	for i, v := range vals {
		if i == 0 || !v.Equal(vals[i-1]) {
			out = append(out, v)
		}
	}
	return out
}

// subsample keeps n values from dom (0 < n < len(dom)) spread evenly,
// including both extremes; one value has no extremes to keep and is the
// median.
func subsample(dom []graph.Value, n int) []graph.Value {
	if n == 1 {
		mid := (len(dom) - 1) / 2
		return dom[mid : mid+1]
	}
	out := make([]graph.Value, n)
	step := float64(len(dom)-1) / float64(n-1)
	for i := 0; i < n; i++ {
		out[i] = dom[int(float64(i)*step+0.5)]
	}
	return out
}

// AlwaysActive returns the template nodes that belong to the output node's
// connected component under every instantiation: those reachable from the
// output via fixed (non-parameterized) edges. Only such nodes have
// refinement-monotone match sets — an edge variable flipping on can
// activate other nodes and grow their match sets from nothing.
func (t *Template) AlwaysActive() []int {
	adj := make([][]int, len(t.Nodes))
	for _, e := range t.Edges {
		if e.Parameterized() {
			continue
		}
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
	}
	seen := make([]bool, len(t.Nodes))
	stack := []int{t.Output}
	seen[t.Output] = true
	var out []int
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, v)
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	sort.Ints(out)
	return out
}

// InstanceSpaceSize returns |I(Q)| ≤ 2^|X_E| * Π(|ladder|+1): the number of
// instantiations distinguishable by the lattice (each range variable may be
// a wildcard or any ladder value; each edge variable absent or present).
func (t *Template) InstanceSpaceSize() int {
	size := 1
	for i := range t.Vars {
		switch t.Vars[i].Kind {
		case RangeVar:
			size *= len(t.Vars[i].Ladder) + 1
		case EdgeVar:
			size *= 2
		}
		if size < 0 { // overflow
			return int(^uint(0) >> 1)
		}
	}
	return size
}
