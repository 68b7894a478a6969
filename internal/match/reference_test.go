package match

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

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
// walks its label bucket, node first; a partial assignment is dropped as soon
// as a literal, injectivity or edge condition among the assigned nodes
// fails, and each value of node stops at its first full embedding.
func bruteForceMatches(g *graph.Graph, q *query.Instance, mode Mode, node int) []graph.NodeID {
	t := q.T
	order := []int{node}
	for _, ni := range q.ActiveNodes() {
		if ni != node {
			order = append(order, ni)
		}
	}
	// Per level: the node's literals, and the active edges it closes with
	// the nodes assigned before it.
	type edge struct {
		from, to int
		label    graph.LabelID
	}
	lits := make([][]query.BoundLiteral, len(order))
	closes := make([][]edge, len(order))
	level := make([]int, len(t.Nodes))
	for i, ni := range order {
		level[ni] = i
		lits[i] = q.BoundLiterals(ni)
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
		for _, v := range g.NodesByLabel(t.Nodes[ni].Label) {
			for _, l := range lits[i] {
				if !l.Matches(g, v) {
					continue next
				}
			}
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

// tinyRandomGraph builds graphs small enough for brute force (≤ 9 nodes).
func tinyRandomGraph(rng *rand.Rand) *graph.Graph {
	g := graph.New()
	n := 5 + rng.Intn(4)
	labels := []string{"A", "B"}
	for i := 0; i < n; i++ {
		g.AddNode(labels[rng.Intn(2)], map[string]graph.Value{
			"x": graph.Int(int64(rng.Intn(4))),
		})
	}
	edgeLabels := []string{"r", "s"}
	for e := 0; e < n*2; e++ {
		from := graph.NodeID(rng.Intn(n))
		to := graph.NodeID(rng.Intn(n))
		if from != to {
			_ = g.AddEdge(from, to, edgeLabels[rng.Intn(2)])
		}
	}
	g.Freeze()
	return g
}

// tinyRandomTemplate builds 2-3 node templates over the tiny schema.
func tinyRandomTemplate(rng *rand.Rand) *query.Template {
	b := query.NewBuilder("tiny")
	labels := []string{"A", "B"}
	b.Node("o", labels[rng.Intn(2)])
	b.Node("p", labels[rng.Intn(2)])
	edgeLabels := []string{"r", "s"}
	if rng.Intn(2) == 0 {
		b.Edge("p", "o", edgeLabels[rng.Intn(2)])
	} else {
		b.VarEdge("e", "p", "o", edgeLabels[rng.Intn(2)])
	}
	if rng.Intn(2) == 0 {
		b.Node("q", labels[rng.Intn(2)])
		b.Edge("o", "q", edgeLabels[rng.Intn(2)])
	}
	ops := []graph.Op{graph.OpGE, graph.OpLE, graph.OpEQ}
	b.RangeVar("x", "p", "x", ops[rng.Intn(len(ops))])
	b.Output("o")
	tpl, err := b.Build()
	if err != nil {
		panic(err)
	}
	return tpl
}

// TestMatcherAgainstBruteForce fuzzes the production matcher against the
// exhaustive oracle over random tiny graphs, templates and instantiations,
// in both matching modes. The trials must land on both sides of
// indexScanCutoff: some selections answered by the index, and some of the
// p node's literal sets falling back to the scan.
func TestMatcherAgainstBruteForce(t *testing.T) {
	const seed = 2024 // fixed and logged so a failing trial reproduces
	rng := rand.New(rand.NewSource(seed))
	indexed, fellBack := 0, 0
	for trial := 0; trial < 250; trial++ {
		g := tinyRandomGraph(rng)
		tpl := tinyRandomTemplate(rng)
		if err := tpl.BindDomains(g, query.DomainOptions{}); err != nil {
			continue // label/attr combination absent in this tiny graph
		}
		in := make(query.Instantiation, len(tpl.Vars))
		for vi := range tpl.Vars {
			v := &tpl.Vars[vi]
			if v.Kind == query.EdgeVar {
				in[vi] = rng.Intn(2)
			} else {
				in[vi] = rng.Intn(len(v.Ladder)+1) - 1
			}
		}
		q := query.MustInstance(tpl, in)
		for _, mode := range []Mode{Isomorphism, Homomorphism} {
			m := New(g)
			m.Mode = mode
			got := m.EvalOutput(q)
			if want := bruteForceOutput(g, q, mode); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d trial %d mode %d:\ninstance %s\ngot  %v\nwant %v\ngraph: %d nodes",
					seed, trial, mode, q, got, want, g.NumNodes())
			}
			indexed += m.Stats.IndexSelections
		}
		p := tpl.Node("p")
		label := tpl.Nodes[p].Label
		if lits, base := q.CompiledLiterals(g, p), g.NodesByLabel(label); len(lits) > 0 && len(base) > 0 {
			if _, ok := New(g).indexCandidates(base, label, lits); !ok {
				fellBack++
			}
		}
	}
	if indexed == 0 || fellBack == 0 {
		t.Errorf("the trials took the index %d times and fell back to the scan %d times; both paths must be exercised",
			indexed, fellBack)
	}
}
