package match

import (
	"slices"

	"fairsqg/internal/graph"
	"fairsqg/internal/query"
)

// bruteForceOutput computes q(u_o, G) by enumerating assignments of active
// template nodes to graph nodes — the obviously correct oracle the
// production matcher is checked against on small inputs.
func bruteForceOutput(g *graph.Graph, q *query.Instance, mode Mode) []graph.NodeID {
	return bruteForceMatches(g, q, mode, q.T.Output)
}

// bruteForceMatches returns, sorted (nil when empty), the graph nodes active
// template node `node` maps to across every embedding of q. Each active node
// walks the members of its label bucket that pass its literals (filtered once,
// in bucket order), node first; a partial assignment is dropped as soon as an
// injectivity or edge condition among the assigned nodes fails, and each
// value of node stops at its first full embedding.
func bruteForceMatches(g *graph.Graph, q *query.Instance, mode Mode, node int) []graph.NodeID {
	t := q.T
	order := []int{node}
	for _, ni := range q.ActiveNodes() {
		if ni != node {
			order = append(order, ni)
		}
	}
	// Per level: the node's candidates, and the active edges it closes with
	// the nodes assigned before it.
	type edge struct {
		from, to int
		label    graph.LabelID
	}
	cands := make([][]graph.NodeID, len(order))
	closes := make([][]edge, len(order))
	level := make([]int, len(t.Nodes))
	for i, ni := range order {
		level[ni] = i
		lits := q.BoundLiterals(ni)
		for _, v := range g.NodesByLabel(t.Nodes[ni].Label) {
			if !slices.ContainsFunc(lits, func(l query.BoundLiteral) bool { return !l.Matches(g, v) }) {
				cands[i] = append(cands[i], v)
			}
		}
	}
	for _, ei := range q.ActiveEdges() {
		e := t.Edges[ei]
		i := max(level[e.From], level[e.To])
		closes[i] = append(closes[i], edge{e.From, e.To, g.LookupLabel(e.Label)})
	}

	assign := make([]graph.NodeID, len(t.Nodes))
	var out []graph.NodeID
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(order) {
			return true
		}
		ni := order[i]
	next:
		for _, v := range cands[i] {
			if mode == Isomorphism {
				for _, nj := range order[:i] {
					if assign[nj] == v {
						continue next
					}
				}
			}
			assign[ni] = v
			for _, e := range closes[i] {
				if e.label == graph.InvalidLabel || !g.HasEdge(assign[e.from], assign[e.to], e.label) {
					continue next
				}
			}
			if !rec(i + 1) {
				continue
			}
			if i > 0 {
				return true
			}
			out = append(out, v)
		}
		return false
	}
	rec(0)
	slices.Sort(out)
	return out
}
