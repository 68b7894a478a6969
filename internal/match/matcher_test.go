package match

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"fairsqg/internal/graph"
	"fairsqg/internal/query"
)

// talentGraph builds a small professional network with known matches.
//
//	directors: d1 (id 0), d2 (id 1)
//	users:     a (id 2, exp 12), b (id 3, exp 4)
//	orgs:      big (id 4, 2000 employees), small (id 5, 50)
//	edges:     a recommend d1, a recommend d2, b recommend d2,
//	           a worksAt big, b worksAt small
func talentGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g := graph.New()
	d1 := g.AddNode("Person", map[string]graph.Value{"title": graph.Str("Director"), "name": graph.Str("dee")})
	d2 := g.AddNode("Person", map[string]graph.Value{"title": graph.Str("Director"), "name": graph.Str("dan")})
	a := g.AddNode("Person", map[string]graph.Value{"title": graph.Str("Engineer"), "yearsOfExp": graph.Int(12)})
	b := g.AddNode("Person", map[string]graph.Value{"title": graph.Str("Engineer"), "yearsOfExp": graph.Int(4)})
	big := g.AddNode("Org", map[string]graph.Value{"employees": graph.Int(2000)})
	small := g.AddNode("Org", map[string]graph.Value{"employees": graph.Int(50)})
	for _, e := range []struct {
		from, to graph.NodeID
		label    string
	}{
		{a, d1, "recommend"}, {a, d2, "recommend"}, {b, d2, "recommend"},
		{a, big, "worksAt"}, {b, small, "worksAt"},
	} {
		if err := g.AddEdge(e.from, e.to, e.label); err != nil {
			t.Fatal(err)
		}
	}
	g.Freeze()
	return g
}

// talentTpl is a template over talentGraph: directors recommended by a user
// with parameterized experience who works at a parameterized-size org; the
// recommend edge carries an edge variable.
func talentTpl(t testing.TB) *query.Template {
	t.Helper()
	tpl, err := query.NewBuilder("talent").
		Node("u_o", "Person").Literal("u_o", "title", graph.OpEQ, graph.Str("Director")).
		Node("u1", "Person").RangeVar("x1", "u1", "yearsOfExp", graph.OpGE).
		Node("o", "Org").RangeVar("x2", "o", "employees", graph.OpGE).
		VarEdge("e1", "u1", "u_o", "recommend").
		Edge("u1", "o", "worksAt").
		Output("u_o").
		SetLadder("x1", graph.Int(4), graph.Int(12)).
		SetLadder("x2", graph.Int(50), graph.Int(2000)).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return tpl
}

func ids(vs ...int) []graph.NodeID {
	out := make([]graph.NodeID, len(vs))
	for i, v := range vs {
		out[i] = graph.NodeID(v)
	}
	return out
}

func TestEvalOutputNodeOnly(t *testing.T) {
	g := talentGraph(t)
	tpl := talentTpl(t)
	m := New(g)
	// Edge variable off: instance collapses to the output node alone —
	// every director matches.
	q := query.MustInstance(tpl, query.Instantiation{query.Wildcard, query.Wildcard, 0})
	got := m.EvalOutput(q)
	if !reflect.DeepEqual(got, ids(0, 1)) {
		t.Errorf("q(G) = %v, want [0 1]", got)
	}
}

func TestEvalOutputFullPattern(t *testing.T) {
	g := talentGraph(t)
	tpl := talentTpl(t)
	m := New(g)
	cases := []struct {
		name string
		in   query.Instantiation
		want []graph.NodeID
	}{
		// exp >= 4, employees >= 50: both recommenders qualify; d1 and d2.
		{"relaxed", query.Instantiation{0, 0, 1}, ids(0, 1)},
		// exp >= 12: only user a qualifies; a recommends both.
		{"exp12", query.Instantiation{1, 0, 1}, ids(0, 1)},
		// employees >= 2000: only a (works at big); both directors.
		{"bigorg", query.Instantiation{0, 1, 1}, ids(0, 1)},
		// exp >= 12 AND employees >= 2000: a only; both directors.
		{"both", query.Instantiation{1, 1, 1}, ids(0, 1)},
		// wildcards with edge on: same as relaxed.
		{"wild", query.Instantiation{query.Wildcard, query.Wildcard, 1}, ids(0, 1)},
	}
	for _, c := range cases {
		q := query.MustInstance(tpl, c.in)
		if got := m.EvalOutput(q); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: q(G) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestEvalOutputSelectiveRecommender(t *testing.T) {
	g := talentGraph(t)
	// Template without the org branch: u1 --recommend--> u_o only.
	tpl, err := query.NewBuilder("rec").
		Node("u_o", "Person").Literal("u_o", "title", graph.OpEQ, graph.Str("Director")).
		Node("u1", "Person").RangeVar("x1", "u1", "yearsOfExp", graph.OpGE).
		Edge("u1", "u_o", "recommend").
		Output("u_o").
		SetLadder("x1", graph.Int(4), graph.Int(12)).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	m := New(g)
	// exp >= 12: only a recommends → d1, d2.
	q := query.MustInstance(tpl, query.Instantiation{1})
	if got := m.EvalOutput(q); !reflect.DeepEqual(got, ids(0, 1)) {
		t.Errorf("exp>=12: %v", got)
	}
	// Make it harder: d1 is only recommended by a.
	// exp >= 4 gives both directors too; check a label-mismatch literal.
	tpl2, err := query.NewBuilder("rec2").
		Node("u_o", "Person").Literal("u_o", "title", graph.OpEQ, graph.Str("Director")).
		Node("u1", "Person").Literal("u1", "yearsOfExp", graph.OpLE, graph.Int(4)).
		Edge("u1", "u_o", "recommend").
		Output("u_o").Build()
	if err != nil {
		t.Fatal(err)
	}
	// Only b has exp <= 4; b recommends d2 only.
	q2 := query.MustInstance(tpl2, query.Instantiation{})
	if got := m.EvalOutput(q2); !reflect.DeepEqual(got, ids(1)) {
		t.Errorf("exp<=4: %v, want [1]", got)
	}
}

func TestEvalOutputWithin(t *testing.T) {
	g := talentGraph(t)
	tpl := talentTpl(t)
	m := New(g)
	q := query.MustInstance(tpl, query.Instantiation{0, 0, 1})
	full := m.EvalOutput(q)
	within := m.EvalOutputWithin(q, full)
	if !reflect.DeepEqual(full, within) {
		t.Errorf("within(full) = %v, want %v", within, full)
	}
	// Restricting to a subset yields the subset's members only.
	sub := m.EvalOutputWithin(q, ids(1))
	if !reflect.DeepEqual(sub, ids(1)) {
		t.Errorf("within([1]) = %v", sub)
	}
	// Restricting to a non-matching node yields nothing.
	if got := m.EvalOutputWithin(q, ids(3)); got != nil {
		t.Errorf("within([3]) = %v, want nil", got)
	}
}

func TestIsomorphismVsHomomorphism(t *testing.T) {
	// Triangle pattern requiring two distinct recommenders of one node.
	g := graph.New()
	d := g.AddNode("Person", map[string]graph.Value{"title": graph.Str("Director")})
	a := g.AddNode("Person", nil)
	if err := g.AddEdge(a, d, "recommend"); err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	tpl, err := query.NewBuilder("two").
		Node("u_o", "Person").Literal("u_o", "title", graph.OpEQ, graph.Str("Director")).
		Node("u1", "Person").
		Node("u2", "Person").
		Edge("u1", "u_o", "recommend").
		Edge("u2", "u_o", "recommend").
		Output("u_o").Build()
	if err != nil {
		t.Fatal(err)
	}
	q := query.MustInstance(tpl, query.Instantiation{})
	iso := New(g)
	if got := iso.EvalOutput(q); got != nil {
		t.Errorf("isomorphism: %v, want nil (only one recommender exists)", got)
	}
	hom := New(g)
	hom.Mode = Homomorphism
	if got := hom.EvalOutput(q); !reflect.DeepEqual(got, ids(0)) {
		t.Errorf("homomorphism: %v, want [0]", got)
	}
}

func TestEdgeLabelNeverInGraph(t *testing.T) {
	g := talentGraph(t)
	tpl, err := query.NewBuilder("none").
		Node("u_o", "Person").
		Node("u1", "Person").
		Edge("u1", "u_o", "mentors"). // label absent from G
		Output("u_o").Build()
	if err != nil {
		t.Fatal(err)
	}
	m := New(g)
	if got := m.EvalOutput(query.MustInstance(tpl, query.Instantiation{})); got != nil {
		t.Errorf("unknown edge label: %v, want nil", got)
	}
}

func TestMatcherStats(t *testing.T) {
	g := talentGraph(t)
	tpl := talentTpl(t)
	m := New(g)
	q := query.MustInstance(tpl, query.Instantiation{0, 0, 1})
	m.EvalOutput(q)
	if m.Stats.Evals != 1 || m.Stats.CandidatesChecked == 0 {
		t.Errorf("stats = %+v", m.Stats)
	}
}

func TestNewRequiresFrozen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New on unfrozen graph should panic")
		}
	}()
	New(graph.New())
}

// randomGraph builds a random two-label graph with numeric attributes.
func randomGraph(t testing.TB, nodes, edges int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	for i := 0; i < nodes; i++ {
		label := "Person"
		attrs := map[string]graph.Value{"yearsOfExp": graph.Int(int64(rng.Intn(20)))}
		if i%5 == 0 {
			label = "Org"
			attrs = map[string]graph.Value{"employees": graph.Int(int64(10 + rng.Intn(5000)))}
		}
		g.AddNode(label, attrs)
	}
	for i := 0; i < edges; i++ {
		from := graph.NodeID(rng.Intn(nodes))
		to := graph.NodeID(rng.Intn(nodes))
		label := "recommend"
		if g.Label(to) == "Org" {
			label = "worksAt"
		} else if g.Label(from) == "Org" {
			label = "employs"
		}
		if from != to {
			if err := g.AddEdge(from, to, label); err != nil {
				t.Fatal(err)
			}
		}
	}
	g.Freeze()
	return g
}

func randomTemplate(t testing.TB, g *graph.Graph) *query.Template {
	t.Helper()
	tpl, err := query.NewBuilder("rand").
		Node("u_o", "Person").
		Node("u1", "Person").RangeVar("x1", "u1", "yearsOfExp", graph.OpGE).
		Node("o", "Org").RangeVar("x2", "o", "employees", graph.OpGE).
		VarEdge("e1", "u1", "u_o", "recommend").
		VarEdge("e2", "u1", "o", "worksAt").
		Output("u_o").Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := tpl.BindDomains(g, query.DomainOptions{MaxValues: 6}); err != nil {
		t.Fatal(err)
	}
	return tpl
}

// differentialSeed fixes the randomized fixture generation; it is logged on
// every failure so a differential divergence reproduces exactly.
const differentialSeed = 7321

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
