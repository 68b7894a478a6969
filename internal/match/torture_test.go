package match

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"fairsqg/internal/graph"
	"fairsqg/internal/query"
)

// multiNullGraph is a deliberately hostile fixture: a multigraph (parallel
// edges with identical endpoints and label must dedup, not double-count) in
// which attribute values include Null (absent) and NaN — the bottom of the
// value total order — on both template-constrained attributes.
//
//	p0 Person exp 10      p0 -rec-> p3 (x2), p0 -rec-> p1, p0 -works-> o4 (x2)
//	p1 Person exp NaN     p1 -rec-> p3, p1 -works-> o4
//	p2 Person (no exp)    p2 -rec-> p3 (x3), p2 -works-> o5
//	p3 Person exp 3       p3 -rec-> p0, p3 -works-> o5
//	o4 Org size 100
//	o5 Org (no size)
func multiNullGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g := graph.New()
	p0 := g.AddNode("Person", map[string]graph.Value{"exp": graph.Int(10)})
	p1 := g.AddNode("Person", map[string]graph.Value{"exp": graph.Num(math.NaN())})
	p2 := g.AddNode("Person", map[string]graph.Value{})
	p3 := g.AddNode("Person", map[string]graph.Value{"exp": graph.Int(3)})
	o4 := g.AddNode("Org", map[string]graph.Value{"size": graph.Int(100)})
	o5 := g.AddNode("Org", map[string]graph.Value{})
	for _, e := range []struct {
		from, to graph.NodeID
		label    string
	}{
		{p0, p3, "rec"}, {p0, p3, "rec"}, {p0, p1, "rec"},
		{p1, p3, "rec"},
		{p2, p3, "rec"}, {p2, p3, "rec"}, {p2, p3, "rec"},
		{p3, p0, "rec"},
		{p0, o4, "works"}, {p0, o4, "works"},
		{p1, o4, "works"},
		{p2, o5, "works"}, {p3, o5, "works"},
	} {
		if err := g.AddEdge(e.from, e.to, e.label); err != nil {
			t.Fatal(err)
		}
	}
	g.Freeze()
	return g
}

// multiNullTpl ranges over both hostile attributes; the edge variable turns
// the recommender off entirely, exercising projection.
func multiNullTpl(t testing.TB, g *graph.Graph) *query.Template {
	t.Helper()
	tpl, err := query.NewBuilder("multinull").
		Node("u_o", "Person").
		Node("u1", "Person").RangeVar("x", "u1", "exp", graph.OpGE).
		Node("org", "Org").RangeVar("y", "org", "size", graph.OpLE).
		VarEdge("e1", "u1", "u_o", "rec").
		Edge("u1", "org", "works").
		Output("u_o").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := tpl.BindDomains(g, query.DomainOptions{MaxValues: 3}); err != nil {
		t.Fatal(err)
	}
	return tpl
}

// TestDifferentialMultigraphNullNaN runs the hostile fixture through the
// matcher and an engine against the brute-force oracle: parallel edges,
// Null and NaN attribute values must not change anyone's answer.
func TestDifferentialMultigraphNullNaN(t *testing.T) {
	g := multiNullGraph(t)
	tpl := multiNullTpl(t, g)
	for _, mode := range []Mode{Isomorphism, Homomorphism} {
		e := NewEngine(g, EngineOptions{Settings: Settings{Mode: mode}})
		for _, in := range allInstantiations(tpl) {
			checkDifferential(t, g, query.MustInstance(tpl, in), mode, e)
		}
	}
}

// TestDisconnectedFallback covers the defensive disconnected-remainder
// branches in pickNext (both the mask fast path and the scan fallback): projected instances are connected by construction, so the
// branches are reached through a hand-built two-component plan.
func TestDisconnectedFallback(t *testing.T) {
	g := talentGraph(t)
	m := New(g)
	person, org := g.LookupLabel("Person"), g.LookupLabel("Org")
	p := &plan{
		nodes:    []int{0, 1},
		nodePos:  []int{0, 1},
		rootIdx:  0,
		adj:      make([][]planEdge, 2),
		adjMask:  []uint64{0, 0},
		fullMask: 3,
		cands:    [][]graph.NodeID{{2}, {4}}, // a (Person), big (Org)
		candBits: make([]graph.Bitset, 2),
		labels:   []graph.LabelID{person, org},
	}
	// pickNext with node 0 assigned and node 1 unreachable: the mask fast
	// path must fall back to the lowest unassigned node with no pivot.
	m.assign = []graph.NodeID{2, graph.InvalidNode}
	m.assignedMask, m.reachMask = 1, 0
	ui, pivot, _, _ := m.pickNext(p)
	if ui != 1 || pivot != graph.InvalidNode {
		t.Errorf("mask fallback picked (%d, pivot %d), want (1, InvalidNode)", ui, pivot)
	}
	// The scan path (plans of > 64 nodes run it) must agree.
	p.adjMask = nil
	ui, pivot, _, _ = m.pickNext(p)
	if ui != 1 || pivot != graph.InvalidNode {
		t.Errorf("scan fallback picked (%d, pivot %d), want (1, InvalidNode)", ui, pivot)
	}
	p.adjMask = []uint64{0, 0}

	// The full embedding succeeds through the fallback: with no constraint
	// edges any candidate pair embeds.
	if !New(g).embedFrom(p, 2) {
		t.Error("embedFrom failed on the disconnected plan")
	}
}

// budgetChainGraph is A0 -r-> B1 -r-> C2 plus an edge-free A3 distractor
// (structurally pruned from the root candidates).
func budgetChainGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g := graph.New()
	a0 := g.AddNode("A", map[string]graph.Value{})
	b1 := g.AddNode("B", map[string]graph.Value{})
	c2 := g.AddNode("C", map[string]graph.Value{})
	g.AddNode("A", map[string]graph.Value{})
	if err := g.AddEdge(a0, b1, "r"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(b1, c2, "r"); err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	return g
}

func chainTpl(t testing.TB, labels ...string) *query.Template {
	t.Helper()
	names := []string{"o", "b", "c"}
	b := query.NewBuilder("chain")
	for i, l := range labels {
		b.Node(names[i], l)
	}
	for i := 1; i < len(labels); i++ {
		b.Edge(names[i-1], names[i], "r")
	}
	b.Output("o")
	tpl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tpl
}

// TestBudgetSemantics pins the MaxBacktrackNodes contract: a budget of N
// admits exactly N search-node expansions per root candidate — in
// particular budget 1 completes a two-node plan (one expansion suffices; the
// historical off-by-one used up the whole budget reaching the first expansion
// and reported a false non-match) — and 0 stays the unbounded sentinel.
func TestBudgetSemantics(t *testing.T) {
	g := budgetChainGraph(t)
	two := query.MustInstance(chainTpl(t, "A", "B"), query.Instantiation{})
	three := query.MustInstance(chainTpl(t, "A", "B", "C"), query.Instantiation{})

	eval := func(q *query.Instance, budget int) ([]graph.NodeID, int) {
		m := New(g)
		m.MaxBacktrackNodes = budget
		res := m.EvalOutput(q)
		return res, m.Stats.BacktrackNodes
	}

	// budget=1: the two-node plan needs exactly one expansion and matches.
	if res, bt := eval(two, 1); !reflect.DeepEqual(res, ids(0)) || bt != 1 {
		t.Errorf("two-node budget=1: res %v (want [0]), backtrack %d (want 1)", res, bt)
	}
	// The three-node plan needs two; budget=1 is a conservative non-match.
	if res, _ := eval(three, 1); res != nil {
		t.Errorf("three-node budget=1: res %v, want nil (budget exhausted)", res)
	}
	// budget=N: two expansions complete the three-node chain exactly.
	if res, bt := eval(three, 2); !reflect.DeepEqual(res, ids(0)) || bt != 2 {
		t.Errorf("three-node budget=2: res %v (want [0]), backtrack %d (want 2)", res, bt)
	}
	// budget=0 is unbounded, not "no budget left".
	if res, bt := eval(three, 0); !reflect.DeepEqual(res, ids(0)) || bt != 2 {
		t.Errorf("three-node budget=0: res %v (want [0]), backtrack %d (want 2)", res, bt)
	}
	// The budget is per root candidate, not per evaluation: a second eval on
	// the same matcher gets a fresh allowance.
	m := New(g)
	m.MaxBacktrackNodes = 1
	for i := 0; i < 2; i++ {
		if res := m.EvalOutput(two); !reflect.DeepEqual(res, ids(0)) {
			t.Errorf("eval %d with budget=1: res %v, want [0]", i, res)
		}
	}

	// The engine plumbs the budget through to its pooled matchers.
	e := NewEngine(g, EngineOptions{Settings: Settings{MaxBacktrackNodes: 1}})
	if res, _, err := e.ParEvalNodeFiltered(context.Background(), two, two.T.Output, nil, nil); err != nil || !reflect.DeepEqual(res, ids(0)) {
		t.Errorf("engine budget=1: res %v err %v, want [0]", res, err)
	}
}

// TestCancellationCounterStability pins the abort bookkeeping: with a
// pre-cancelled context the search may expand at most one polling window of
// nodes (the counter is incremented only after the abort check, so the
// unwinding frames and the remaining root candidates add nothing).
func TestCancellationCounterStability(t *testing.T) {
	g := randomGraph(t, 1000, 4000, 11)
	tpl := randomTemplate(t, g)
	q := query.MustInstance(tpl, query.Instantiation{0, 0, 1, 1})

	m := New(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m.BindContext(ctx)
	if res := m.EvalOutput(q); !m.Aborted() {
		t.Fatalf("pre-cancelled eval completed with %d matches instead of aborting", len(res))
	}
	if bt := m.Stats.BacktrackNodes; bt > cancelCheckMask+1 {
		t.Errorf("aborted eval expanded %d nodes, want <= %d", bt, cancelCheckMask+1)
	}

	// Unbinding restores a fully working matcher with correct answers.
	m.BindContext(nil)
	want := New(g).EvalOutput(q)
	if got := m.EvalOutput(q); m.Aborted() || !reflect.DeepEqual(got, want) {
		t.Errorf("post-abort eval: aborted=%v got %v, want %v", m.Aborted(), got, want)
	}
}

// TestSignaturePruneSoundness is the property behind structurePrune: any
// candidate the degree/signature check rejects must fail every brute-force
// embedding at that plan node. The sweep runs tiny random fixtures until a
// quota of actually-pruned candidates has been verified against the oracle.
func TestSignaturePruneSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(differentialSeed + 9))
	prunedChecked := 0
	for trial := 0; trial < 150 && prunedChecked < 60; trial++ {
		g := tinyRandomGraph(rng)
		tpl := tinyRandomTemplate(rng)
		if err := tpl.BindDomains(g, query.DomainOptions{}); err != nil {
			continue
		}
		for _, in := range allInstantiations(tpl) {
			q := query.MustInstance(tpl, in)
			for _, mode := range []Mode{Isomorphism, Homomorphism} {
				m := New(g)
				m.Mode = mode
				p := m.buildPlan(q, q.T.Output, nil, nil)
				if p == nil {
					continue
				}
				for i, ni := range p.nodes {
					if len(p.adj[i]) == 0 {
						continue
					}
					req := m.structureReq(p, i)
					oracle := bruteForceMatches(g, q, mode, ni)
					for _, v := range m.filteredCandidates(q.T.Nodes[ni].Label, q.CompiledLiterals(m.G, ni)) {
						if m.structureAdmits(req, v) {
							continue
						}
						if slices.Contains(oracle, v) {
							t.Fatalf("trial %d mode %d: %s: node %d candidate %d pruned but embeds",
								trial, mode, q, ni, v)
						}
						prunedChecked++
					}
				}
			}
		}
	}
	if prunedChecked == 0 {
		t.Fatal("the sweep never exercised the pruning path; fixture generator changed?")
	}
}

// TestIsoDegreePruneSoundness pins the isomorphism edge-count requirement: a
// node with two distinct same-label template children needs two incident
// graph edges in that run. a4 (one r-edge) is count-pruned under
// isomorphism; a3 (two parallel r-edges to ONE child) survives the count but
// fails injectivity in the search; under homomorphism both match.
func TestIsoDegreePruneSoundness(t *testing.T) {
	g := graph.New()
	a0 := g.AddNode("A", map[string]graph.Value{})
	b1 := g.AddNode("B", map[string]graph.Value{})
	b2 := g.AddNode("B", map[string]graph.Value{})
	a3 := g.AddNode("A", map[string]graph.Value{})
	a4 := g.AddNode("A", map[string]graph.Value{})
	for _, e := range []struct{ from, to graph.NodeID }{
		{a0, b1}, {a0, b2}, // two distinct children
		{a3, b1}, {a3, b1}, // parallel edges, one child
		{a4, b1}, // single edge
	} {
		if err := g.AddEdge(e.from, e.to, "r"); err != nil {
			t.Fatal(err)
		}
	}
	g.Freeze()

	tpl, err := query.NewBuilder("twins").
		Node("o", "A").Node("p", "B").Node("q", "B").
		Edge("o", "p", "r").Edge("o", "q", "r").
		Output("o").Build()
	if err != nil {
		t.Fatal(err)
	}
	q := query.MustInstance(tpl, query.Instantiation{})

	for _, c := range []struct {
		mode Mode
		want []graph.NodeID
	}{
		{Isomorphism, ids(int(a0))},
		{Homomorphism, ids(int(a0), int(a3), int(a4))},
	} {
		m := New(g)
		m.Mode = c.mode
		got := m.EvalOutput(q)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("mode %d: got %v, want %v", c.mode, got, c.want)
		}
		if want := bruteForceOutput(g, q, c.mode); !reflect.DeepEqual(got, want) {
			t.Errorf("mode %d: matcher %v, brute force %v", c.mode, got, want)
		}
		if c.mode == Isomorphism && m.Stats.SigPruned == 0 {
			t.Error("isomorphism eval pruned nothing; the count requirement is dead")
		}
	}
}
