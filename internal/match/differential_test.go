package match

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"fairsqg/internal/graph"
	"fairsqg/internal/query"
)

// differentialSeed fixes the randomized fixture generation; it is logged on
// every failure so a differential divergence reproduces exactly.
const differentialSeed = 7321

// checkDifferential asserts that the sequential matcher and the engine both
// return the brute-force oracle's answer for one instance, and runs the
// engine column over its template nodes.
func checkDifferential(t *testing.T, g *graph.Graph, q *query.Instance, mode Mode, e *Engine) {
	t.Helper()
	checkEngineColumn(t, g, q, mode, nil)
	want := bruteForceOutput(g, q, mode)
	m := New(g)
	m.Mode = mode
	if got := m.EvalOutput(q); !reflect.DeepEqual(got, want) {
		t.Errorf("seed %d: %s mode %d:\nsequential %v\noracle     %v",
			differentialSeed, q, mode, got, want)
	}
	got, _, err := e.ParEvalNodeFiltered(context.Background(), q, q.T.Output, nil, nil)
	if err != nil {
		t.Fatalf("seed %d: %s: %v", differentialSeed, q, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("seed %d: %s mode %d:\nengine %v\noracle %v",
			differentialSeed, q, mode, got, want)
	}
}

// engineCases tallies the evaluation shapes the engine column has compared,
// so the tests can assert the corpus reached each of them.
var engineCases struct{ plain, within, vetoed, inactive, singleNode int }

// checkEngineColumn is the "engine" column: for every template node, with
// and without a vetoing accept, a fresh engine returns the sequential
// matcher's match set and leaves exactly its counters — the engine runs the
// sequential loop, not an approximation of it. within, when non-nil,
// restricts the output node (incVerify). The sequential matcher gets a
// candidate cache of its own, so both sides look up the same lists and the
// access-path and cache counters are comparable.
func checkEngineColumn(t *testing.T, g *graph.Graph, q *query.Instance, mode Mode, within []graph.NodeID) {
	t.Helper()
	veto := func([]graph.NodeID) bool { return false }
	for node := range q.T.Nodes {
		for _, accept := range []func([]graph.NodeID) bool{nil, veto} {
			var w []graph.NodeID
			if node == q.T.Output {
				w = within
			}
			m := New(g)
			m.Mode, m.Cache = mode, NewCandidateCache(0)
			e := NewEngine(g, EngineOptions{Settings: Settings{Mode: mode}})
			want, wantOK := m.EvalNodeFiltered(q, node, w, accept)
			got, gotOK, err := e.ParEvalNodeFiltered(context.Background(), q, node, w, accept)
			if err != nil {
				t.Fatalf("seed %d: engine: %s node %d: %v", differentialSeed, q, node, err)
			}
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d: engine: %s node %d:\nengine     %v ok=%v\nsequential %v ok=%v",
					differentialSeed, q, node, got, gotOK, want, wantOK)
			}
			es, cs := e.Stats(), m.Cache.Stats()
			if es.Stats != m.Stats || es.Cache.Hits != cs.Hits || es.Cache.Misses != cs.Misses {
				t.Errorf("seed %d: engine: %s node %d: counters diverged:\nengine     %+v %+v\nsequential %+v %+v",
					differentialSeed, q, node, es.Stats, es.Cache, m.Stats, cs)
			}
			switch {
			case !q.NodeActive(node):
				engineCases.inactive++
			case !wantOK:
				engineCases.vetoed++
			case len(want) > 0 && m.Stats.CandidatesChecked == 0:
				engineCases.singleNode++ // matches without backtracking: the plan is this node alone
			case w != nil:
				engineCases.within++
			default:
				engineCases.plain++
			}
		}
	}
}

// TestDifferentialTalentFixture runs every instantiation of the canonical
// talent fixture through the matcher and an engine in both matching modes. Its
// e1=0 instances collapse to the output node alone, so this is also where
// the engine column meets inactive nodes and single-node plans.
func TestDifferentialTalentFixture(t *testing.T) {
	g := talentGraph(t)
	tpl := talentTpl(t)
	engineCases.plain, engineCases.vetoed, engineCases.inactive, engineCases.singleNode = 0, 0, 0, 0
	for _, mode := range []Mode{Isomorphism, Homomorphism} {
		e := NewEngine(g, EngineOptions{Settings: Settings{Mode: mode}})
		for _, in := range allInstantiations(tpl) {
			checkDifferential(t, g, query.MustInstance(tpl, in), mode, e)
		}
	}
	if c := engineCases; c.plain == 0 || c.vetoed == 0 || c.inactive == 0 || c.singleNode == 0 {
		t.Errorf("engine column missed an evaluation shape: %+v", c)
	}
}

// TestEngineAllocations: the engine evaluates on the calling goroutine with
// the planner's own matcher, so it allocates no more than
// Matcher.EvalNodeFiltered with a candidate cache of its own.
func TestEngineAllocations(t *testing.T) {
	g := randomGraph(t, 300, 900, differentialSeed)
	tpl := randomTemplate(t, g)
	m := New(g)
	m.Cache = NewCandidateCache(0)
	e := NewEngine(g, EngineOptions{})
	ctx := context.Background()
	in := query.Root(tpl)
	var parent []graph.NodeID
	for step := 0; step < 4; step++ {
		q := query.MustInstance(tpl, in)
		for _, within := range [][]graph.NodeID{nil, parent} {
			seq := testing.AllocsPerRun(10, func() { m.EvalNodeFiltered(q, q.T.Output, within, nil) })
			eng := testing.AllocsPerRun(10, func() { e.ParEvalNodeFiltered(ctx, q, q.T.Output, within, nil) })
			if eng > seq {
				t.Errorf("%s (within=%v): engine allocates %.0f per evaluation, matcher %.0f",
					q, within != nil, eng, seq)
			}
		}
		parent = m.EvalOutput(q)
		kids := query.RefineSteps(tpl, in)
		if len(kids) == 0 {
			break
		}
		in = kids[len(kids)-1]
	}
}

// TestDifferentialRandomGraph covers the mid-size random fixture: every
// instantiation of the 4-variable random template, one engine reused across
// instances so the shared cache is exercised with mixed keys.
func TestDifferentialRandomGraph(t *testing.T) {
	g := randomGraph(t, 300, 900, differentialSeed)
	tpl := randomTemplate(t, g)
	e := NewEngine(g, EngineOptions{})
	for _, in := range allInstantiations(tpl) {
		checkDifferential(t, g, query.MustInstance(tpl, in), Isomorphism, e)
	}
}

// TestDifferentialTinyRandom sweeps many tiny random graph/template pairs
// (the brute-force oracle fixtures); a fresh engine per graph and mode,
// shared across that graph's instances.
func TestDifferentialTinyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(differentialSeed))
	for trial := 0; trial < 40; trial++ {
		g := tinyRandomGraph(rng)
		tpl := tinyRandomTemplate(rng)
		if err := tpl.BindDomains(g, query.DomainOptions{}); err != nil {
			continue
		}
		for _, mode := range []Mode{Isomorphism, Homomorphism} {
			e := NewEngine(g, EngineOptions{Settings: Settings{Mode: mode}})
			for _, in := range allInstantiations(tpl) {
				checkDifferential(t, g, query.MustInstance(tpl, in), mode, e)
			}
		}
	}
}

// TestDifferentialIncremental checks the engine's within-restricted path
// (incVerify) against the sequential one along random refinement chains.
func TestDifferentialIncremental(t *testing.T) {
	g := randomGraph(t, 300, 900, differentialSeed+1)
	tpl := randomTemplate(t, g)
	m := New(g)
	e := NewEngine(g, EngineOptions{})
	rng := rand.New(rand.NewSource(differentialSeed + 2))
	engineCases.within = 0
	for trial := 0; trial < 20; trial++ {
		in := query.Root(tpl)
		parent := m.EvalOutput(query.MustInstance(tpl, in))
		for step := 0; step < 5; step++ {
			kids := query.RefineSteps(tpl, in)
			if len(kids) == 0 {
				break
			}
			in = kids[rng.Intn(len(kids))]
			q := query.MustInstance(tpl, in)
			want := m.EvalOutputWithin(q, parent)
			checkEngineColumn(t, g, q, Isomorphism, parent)
			got, _, err := e.ParEvalNodeFiltered(context.Background(), q, q.T.Output, parent, nil)
			if err != nil {
				t.Fatalf("seed %d: %v", differentialSeed, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d trial %d step %d: %s: engine %v, sequential %v",
					differentialSeed, trial, step, q, got, want)
			}
			parent = want
		}
	}
	if engineCases.within == 0 {
		t.Error("engine column never ran a within-restricted evaluation")
	}
}
