package match

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"fairsqg/internal/graph"
	"fairsqg/internal/query"
)

func allInstantiations(t *query.Template) []query.Instantiation {
	var out []query.Instantiation
	var rec func(in query.Instantiation, vi int)
	rec = func(in query.Instantiation, vi int) {
		if vi == len(t.Vars) {
			out = append(out, in.Clone())
			return
		}
		v := &t.Vars[vi]
		if v.Kind == query.EdgeVar {
			for _, l := range []int{0, 1} {
				in[vi] = l
				rec(in, vi+1)
			}
			return
		}
		for l := query.Wildcard; l < len(v.Ladder); l++ {
			in[vi] = l
			rec(in, vi+1)
		}
	}
	rec(make(query.Instantiation, len(t.Vars)), 0)
	return out
}

func TestParEvalOutputMatchesSequentialTalent(t *testing.T) {
	g := talentGraph(t)
	tpl := talentTpl(t)
	m := New(g)
	e := NewEngine(g, EngineOptions{})
	for _, in := range allInstantiations(tpl) {
		q := query.MustInstance(tpl, in)
		want := m.EvalOutput(q)
		got, _, err := e.ParEvalNodeFiltered(context.Background(), q, q.T.Output, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: engine %v, matcher %v", q, got, want)
		}
	}
}

func TestParEvalWithin(t *testing.T) {
	g := talentGraph(t)
	tpl := talentTpl(t)
	e := NewEngine(g, EngineOptions{})
	q := query.MustInstance(tpl, query.Instantiation{0, 0, 1})
	full, _, err := e.ParEvalNodeFiltered(context.Background(), q, q.T.Output, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	within, _, err := e.ParEvalNodeFiltered(context.Background(), q, q.T.Output, full, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, within) {
		t.Errorf("within(full) = %v, want %v", within, full)
	}
	sub, _, err := e.ParEvalNodeFiltered(context.Background(), q, q.T.Output, ids(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sub, ids(1)) {
		t.Errorf("within([1]) = %v", sub)
	}
}

func TestParEvalOutputFilteredVeto(t *testing.T) {
	g := talentGraph(t)
	tpl := talentTpl(t)
	e := NewEngine(g, EngineOptions{})
	q := query.MustInstance(tpl, query.Instantiation{0, 0, 1})
	var sawCands int
	matches, ok, err := e.ParEvalNodeFiltered(context.Background(), q, q.T.Output, nil,
		func(cands []graph.NodeID) bool { sawCands = len(cands); return false })
	if err != nil {
		t.Fatal(err)
	}
	if ok || matches != nil {
		t.Errorf("vetoed eval returned ok=%v matches=%v", ok, matches)
	}
	if sawCands == 0 {
		t.Error("accept saw no candidates")
	}
}

func TestParEvalCancellation(t *testing.T) {
	g := randomGraph(t, 1000, 4000, 11)
	tpl := randomTemplate(t, g)
	e := NewEngine(g, EngineOptions{})
	q := query.MustInstance(tpl, query.Instantiation{0, 0, 1, 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the evaluation must abort, not complete
	if _, _, err := e.ParEvalNodeFiltered(ctx, q, q.T.Output, nil, nil); err != context.Canceled {
		t.Fatalf("cancelled eval returned err=%v, want context.Canceled", err)
	}
	// The abort is prompt: the matcher expands at most one polling window of
	// search nodes before unwinding — the counter is incremented only after
	// the abort check, so the unwinding frames and the untried candidates add
	// nothing.
	if bt := e.Stats().BacktrackNodes; bt > cancelCheckMask+1 {
		t.Errorf("pre-cancelled eval expanded %d nodes, want <= %d", bt, cancelCheckMask+1)
	}
	// The engine stays usable after an aborted evaluation.
	m := New(g)
	want := m.EvalOutput(q)
	got, _, err := e.ParEvalNodeFiltered(context.Background(), q, q.T.Output, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("post-abort eval %v, want %v", got, want)
	}
}

// TestEngineCacheStats: whatever options an engine is built from, it has a
// store: a repeated Derived and a repeated candidate list come from it, and
// Cache counts the candidate-list lookups alone.
func TestEngineCacheStats(t *testing.T) {
	g := talentGraph(t)
	q := query.MustInstance(talentTpl(t), query.Instantiation{0, 0, 1})
	want := New(g).EvalOutput(q)
	for name, s := range map[string]Settings{"zero": {}, "homomorphism": {Mode: Homomorphism},
		"budget": {MaxBacktrackNodes: 50}} {
		e := NewEngine(g, EngineOptions{Settings: s})
		var first CacheStats
		for i := 0; i < 2; i++ {
			got, _, err := e.ParEvalNodeFiltered(context.Background(), q, q.T.Output, nil, nil)
			if err != nil || (s.Mode == Isomorphism && s.MaxBacktrackNodes == 0 && !reflect.DeepEqual(got, want)) {
				t.Errorf("%s: %v (err %v), want %v", name, got, err, want)
			}
			if v, hit := e.Derived("x", nil, func() (any, int64) { return i, 8 }); v != 0 || hit != (i == 1) {
				t.Errorf("%s: Derived %d: %v, hit %v", name, i, v, hit)
			}
			if i == 0 {
				first = e.Stats().Cache
			}
		}
		if st := e.Stats(); first.Misses == 0 || st.Cache.Misses != first.Misses || st.Cache.Hits != 2*first.Hits+first.Misses || st.Evals != 2 {
			t.Errorf("%s: the repeat did not find every candidate list: %+v, then %+v", name, first, st)
		}
	}
}

func TestEngineConcurrentUse(t *testing.T) {
	g := randomGraph(t, 300, 900, 7)
	tpl := randomTemplate(t, g)
	e := NewEngine(g, EngineOptions{})
	e.SetStoreCeiling(16 << 10) // evicting while the goroutines look up
	ins := allInstantiations(tpl)
	want := make([][]graph.NodeID, len(ins))
	m := New(g)
	qs := make([]*query.Instance, len(ins))
	for i, in := range ins {
		qs[i] = query.MustInstance(tpl, in)
		want[i] = m.EvalOutput(qs[i])
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, q := range qs {
				got, _, err := e.ParEvalNodeFiltered(context.Background(), q, q.T.Output, nil, nil)
				if err != nil {
					errs[w] = err
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d: %s: %v != %v", w, q, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestCandidateCacheLRUEviction(t *testing.T) {
	c := NewCandidateCache(2)
	c.keep("a", ids(1))
	c.keep("b", ids(2))
	if _, ok := c.lookup("a"); !ok { // refresh a: b becomes LRU
		t.Fatal("a missing")
	}
	c.keep("c", ids(3))
	if _, ok := c.lookup("b"); ok {
		t.Error("b should have been evicted as LRU")
	}
	if _, ok := c.lookup("a"); !ok {
		t.Error("a should have survived")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats: %+v", st)
	}
}

func TestCandKeyCanonicalizesLiteralOrder(t *testing.T) {
	a := query.CompiledLiteral{Attr: "x", Op: graph.OpGE, Value: graph.Int(3)}
	b := query.CompiledLiteral{Attr: "y", Op: graph.OpLE, Value: graph.Str("q")}
	k1 := candKey("Person", []query.CompiledLiteral{a, b})
	k2 := candKey("Person", []query.CompiledLiteral{b, a})
	if k1 != k2 {
		t.Errorf("literal order changed the key:\n%q\n%q", k1, k2)
	}
	// Distinct value kinds must stay distinct even with equal renderings.
	k3 := candKey("Person", []query.CompiledLiteral{{Attr: "x", Op: graph.OpEQ, Value: graph.Str("1")}})
	k4 := candKey("Person", []query.CompiledLiteral{{Attr: "x", Op: graph.OpEQ, Value: graph.Int(1)}})
	if k3 == k4 {
		t.Error("Str(\"1\") and Int(1) share a cache key")
	}
}

// TestRetiredGenerationCollectable: once an engine and its graph generation
// are dropped, one GC cycle frees the generation. A sync.Pool of matchers
// failed this — pools live in a runtime-global list, and their victim cache
// kept every pooled Matcher.G (a whole copy-on-write generation) reachable
// for two further cycles after each Retarget or Registry.Mutate.
func TestRetiredGenerationCollectable(t *testing.T) {
	g1 := randomGraph(t, 300, 900, 17)
	tpl := randomTemplate(t, g1)
	finalized := make(chan struct{})
	func() {
		g2, _, err := graph.ApplyBatch(g1, []graph.Mutation{
			{Op: graph.MutSetAttr, Node: 1, Attr: "yearsOfExp", Value: graph.Int(3)},
		})
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(g2, func(*graph.Graph) { close(finalized) })
		// The instance caches its literals compiled against g2: it is part
		// of what must go.
		q := query.MustInstance(tpl, query.Instantiation{0, 0, 1, 1})
		e := NewEngine(g2, EngineOptions{})
		if got, _, err := e.ParEvalNodeFiltered(context.Background(), q, q.T.Output, nil, nil); err != nil || len(got) == 0 {
			t.Fatalf("%d matches, err %v", len(got), err)
		}
		// Domains held, used as a seed and released stay on the engine's
		// free list, which goes with the engine.
		_, _, held, err := e.ParEvalOutputSeeded(context.Background(), q, nil, nil, nil, true, "")
		if err != nil || held == nil {
			t.Fatalf("held %v, err %v", held, err)
		}
		child := query.MustInstance(tpl, query.Instantiation{1, 0, 1, 1})
		if _, _, _, err := e.ParEvalOutputSeeded(context.Background(), child, nil, nil, held, false, ""); err != nil {
			t.Fatal(err)
		}
		e.ReleaseDomains(held)
	}()
	runtime.GC()
	select {
	case <-finalized:
	case <-time.After(5 * time.Second):
		t.Fatal("retired generation still reachable after one GC")
	}
}

// TestAdoptCarriesMatchers: across 20 generations, each engine adopting its
// predecessor's free matchers, two concurrent callers are served by no more
// than two matchers in all, each evaluates its generation exactly as a fresh
// matcher does — also as the node count grows past the injectivity bitset's
// words — and no free matcher is left on, or points at, a retired generation.
func TestAdoptCarriesMatchers(t *testing.T) {
	g := randomGraph(t, 300, 1200, 23)
	tpl := randomTemplate(t, g)
	var qs []*query.Instance
	for _, in := range allInstantiations(tpl) {
		qs = append(qs, query.MustInstance(tpl, in))
	}
	ctx := context.Background()
	e := NewEngine(g, EngineOptions{})
	seen := map[*Matcher]bool{}
	for gen := 0; gen < 20; gen++ {
		batch := []graph.Mutation{{Op: graph.MutRemoveNode, Node: graph.NodeID(5*gen + 2)}}
		for i := 0; i < 70; i++ {
			batch = append(batch, graph.Mutation{Op: graph.MutAddNode, Label: "Person",
				Attrs: []graph.AttrPair{{Name: "yearsOfExp", Value: graph.Int(int64(i % 20))}}})
		}
		next, res, err := graph.ApplyBatch(g, batch)
		if err != nil {
			t.Fatal(err)
		}
		var edges []graph.Mutation // new people work at the orgs, every fifth node
		for i, v := range res.AddedNodes[:40] {
			edges = append(edges, graph.Mutation{Op: graph.MutAddEdge, From: v, To: graph.NodeID(5 * (i + 1)), Label: "worksAt"})
		}
		if next, _, err = graph.ApplyBatch(next, edges); err != nil {
			t.Fatal(err)
		}
		old := e
		g, e = next, NewEngine(next, EngineOptions{})
		e.Adopt(old)
		if len(old.free) != 0 {
			t.Fatalf("generation %d: the retired engine kept %d free matchers", gen, len(old.free))
		}
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ref := New(g)
				for i := w; i < len(qs); i += 2 {
					got, _, err := e.ParEvalNodeFiltered(ctx, qs[i], qs[i].T.Output, nil, nil)
					if want := ref.EvalOutput(qs[i]); err != nil || !reflect.DeepEqual(got, want) {
						t.Errorf("generation %d, %s: %d matches (err %v), a fresh matcher's %d", gen, qs[i], len(got), err, len(want))
						return
					}
				}
			}()
		}
		wg.Wait()
		for _, m := range e.free {
			if m.G != g || m.Cache != &e.cache {
				t.Fatalf("generation %d: a free matcher is on another generation or store", gen)
			}
			seen[m] = true
		}
	}
	if len(seen) > 2 {
		t.Errorf("two callers over 20 generations were served by %d matchers", len(seen))
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
