package match

import (
	"context"
	"runtime"
	"slices"
	"testing"

	"fairsqg/internal/graph"
	"fairsqg/internal/query"
)

// planCost returns the allocations and bytes one warm buildPlan of q,
// seeded from seed when that is non-nil, costs on m.
func planCost(t *testing.T, m *Matcher, q *query.Instance, seed *Domains) (allocs float64, bytes uint64) {
	t.Helper()
	const runs = 50
	plan := func() {
		if m.buildPlan(q, q.T.Output, nil, seed) == nil {
			t.Fatal("no plan")
		}
	}
	plan() // sizes the arena
	plan() // and takes every piece from it
	allocs = testing.AllocsPerRun(runs, plan)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		plan()
	}
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestBuildPlanArena: with the candidate lists cached, a warm buildPlan
// takes its copies of them and its candidate bitsets from the matcher's
// arena, so what it allocates does not grow with the label populations. A
// seeded plan — one node inherited, two expanded from it — takes the same
// pieces from the same arena, and the domains it is captured into reuse
// their buffers.
func TestBuildPlanArena(t *testing.T) {
	var allocs, seededAllocs, captureAllocs [2]float64
	var bytes, seededBytes [2]uint64
	sizes := [2]int{2000, 16000}
	for i, nodes := range sizes {
		g := randomGraph(t, nodes, 3*nodes, differentialSeed)
		tpl := randomTemplate(t, g)
		in := query.Root(tpl)
		root := query.MustInstance(tpl, in)
		in[tpl.Var("e1")], in[tpl.Var("e2")] = 1, 1 // three unfiltered nodes
		q := query.MustInstance(tpl, in)
		m := New(g)
		m.Cache = NewCandidateCache(0)
		allocs[i], bytes[i] = planCost(t, m, q, nil)
		if st := m.Cache.Stats(); st.Hits == 0 || st.Misses != int64(st.Entries) {
			t.Fatalf("%d nodes: cache stats %+v, want one miss per entry and then hits", nodes, st)
		}
		seed := captureDomains(g, Isomorphism, root, nil, nil)
		seededAllocs[i], seededBytes[i] = planCost(t, m, q, seed)
		held := new(Domains)
		p := m.buildPlan(q, tpl.Output, nil, seed)
		held.capture(m, p, false) // sizes the buffers
		captureAllocs[i] = testing.AllocsPerRun(20, func() { held.capture(m, p, false) })
	}
	if allocs[0] != allocs[1] || seededAllocs[0] != seededAllocs[1] {
		t.Errorf("buildPlan allocations follow the graph: %v (seeded %v) at %d nodes, %v (seeded %v) at %d",
			allocs[0], seededAllocs[0], sizes[0], allocs[1], seededAllocs[1], sizes[1])
	}
	// One copy of one candidate list at the larger size is ~50 KB.
	if bytes[1] > bytes[0]+256 || seededBytes[1] > seededBytes[0]+256 {
		t.Errorf("buildPlan bytes follow the graph: %d (seeded %d) at %d nodes, %d (seeded %d) at %d",
			bytes[0], seededBytes[0], sizes[0], bytes[1], seededBytes[1], sizes[1])
	}
	if captureAllocs != [2]float64{} {
		t.Errorf("capturing into a sized Domains allocates: %v", captureAllocs)
	}
}

// TestSingleNodeResultIsCallerOwned: an instance that collapses to its
// output node returns the plan's candidates, which live in the matcher's
// arena — as a copy, from the matcher and from the engine alike.
func TestSingleNodeResultIsCallerOwned(t *testing.T) {
	g := randomGraph(t, 300, 900, differentialSeed)
	tpl := randomTemplate(t, g)
	q := query.MustInstance(tpl, query.Root(tpl)) // both edges absent
	m := New(g)
	m.Cache = NewCandidateCache(0)
	e := NewEngine(g, EngineOptions{})
	evals := map[string]func() []graph.NodeID{
		"matcher": func() []graph.NodeID { return m.EvalOutput(q) },
		"engine": func() []graph.NodeID {
			got, _, err := e.ParEvalNodeFiltered(context.Background(), q, q.T.Output, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			return got
		},
	}
	for name, eval := range evals {
		first := eval()
		want := slices.Clone(first)
		if len(want) == 0 {
			t.Fatalf("%s: no matches", name)
		}
		second := eval()
		for i := range second {
			second[i] = graph.InvalidNode
		}
		if third := eval(); !slices.Equal(first, want) || !slices.Equal(third, want) {
			t.Errorf("%s: results share memory with the plan or each other", name)
		}
	}
}
