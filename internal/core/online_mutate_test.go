package core

import (
	"runtime"
	"testing"
	"time"

	"fairsqg/internal/graph"
	"fairsqg/internal/query"
)

// mutatingStream fires a side effect just before handing out arrival
// number `at` — the harness for interleaving graph mutations with an
// online instance stream.
type mutatingStream struct {
	inner InstanceStream
	at    int
	n     int
	fire  func()
}

func (s *mutatingStream) Next() *query.Instance {
	s.n++
	if s.n == s.at {
		s.fire()
	}
	return s.inner.Next()
}

// TestOnlineQGenConsumesMutations: a mutation landing mid-stream makes
// OnlineQGen retarget and re-score its archive — the invariants (|set| ≤
// K, ε monotone) hold across the re-score, and every member of the final
// set carries exactly the score a cold verifier computes on the final
// generation (no stale pre-mutation points survive).
func TestOnlineQGenConsumesMutations(t *testing.T) {
	g := fixtureGraph(t, 30)
	cfg := fixtureConfig(t, g, 0.05, 3)
	live := graph.NewLive(g)
	defer live.Close()
	r := newRunnerT(t, cfg)
	defer r.Close()

	// The fixture forces title=Director on every fourth Person (IDs
	// 0,4,8,…); removing 25 of them guts a big slice of the output label,
	// so archived instances must shrink or die under the new generation.
	var batch []graph.Mutation
	for id := graph.NodeID(0); len(batch) < 25; id += 4 {
		batch = append(batch, graph.Mutation{Op: graph.MutRemoveNode, Node: id})
	}
	stream := &mutatingStream{
		inner: NewRandomStream(cfg.Template, 120, 11),
		at:    60,
		fire: func() {
			if _, err := live.Apply(batch); err != nil {
				t.Fatal(err)
			}
		},
	}
	res, err := r.OnlineQGen(stream, OnlineOptions{
		K: 4, Window: 20, InitialEps: 0.05,
		Mutations: &LiveMutations{L: live},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rescores != 1 {
		t.Fatalf("Rescores = %d, want 1", res.Rescores)
	}
	if res.Processed != 120 || len(res.Set) == 0 || len(res.Set) > 4 {
		t.Fatalf("processed %d |set| %d", res.Processed, len(res.Set))
	}
	prev := 0.0
	for _, e := range res.EpsHistory {
		if e < prev-1e-12 {
			t.Fatalf("ε decreased across re-score: %v -> %v", prev, e)
		}
		prev = e
	}

	// Cold-verify the final set against the final generation: feasibility
	// and points must agree bit-for-bit with what the online run kept.
	final := live.Acquire()
	defer final.Close()
	if final.Version() != 2 {
		t.Fatalf("final generation version %d, want 2", final.Version())
	}
	cfg2 := *cfg
	cfg2.G = final
	r2 := newRunnerT(t, &cfg2)
	for _, v := range res.Set {
		nv := r2.verify(v.Q, nil)
		if !nv.Feasible {
			t.Errorf("final set member %s infeasible on final generation", v.Q.Key())
			continue
		}
		if nv.Point != v.Point {
			t.Errorf("stale score survived re-score: %s kept %+v, cold verify %+v",
				v.Q.Key(), v.Point, nv.Point)
		}
	}
}

// TestOnlineCacheCountersSpanGenerations: each batch puts the run on a fresh
// engine, yet the run's candidate-list lookups only grow — they carry every
// retired engine's, like the matcher counters.
func TestOnlineCacheCountersSpanGenerations(t *testing.T) {
	g := fixtureGraph(t, 30)
	cfg := fixtureConfig(t, g, 0.05, 3)
	live := graph.NewLive(g)
	defer live.Close()
	r := newRunnerT(t, cfg)
	defer r.Close()
	var seen []int64 // lookups as each batch lands, then at the end
	stream := &mutatingStream{inner: NewRandomStream(cfg.Template, 120, 11), at: 40}
	stream.fire = func() {
		seen = append(seen, r.Stats().Cache.Hits+r.Stats().Cache.Misses)
		if _, err := live.Apply([]graph.Mutation{{Op: graph.MutSetAttr, Node: graph.NodeID(len(seen)), Attr: "yearsOfExp", Value: graph.Int(1)}}); err != nil {
			t.Fatal(err)
		}
		stream.at += 50
	}
	res, err := r.OnlineQGen(stream, OnlineOptions{K: 4, Window: 20, InitialEps: 0.05, Mutations: &LiveMutations{L: live}})
	if err != nil {
		t.Fatal(err)
	}
	seen = append(seen, res.Stats.Cache.Hits+res.Stats.Cache.Misses)
	if own := r.engine.Stats().Cache; res.Rescores != 2 || seen[0] == 0 || seen[1] <= seen[0] || seen[2] <= seen[1] || seen[2] <= own.Hits+own.Misses {
		t.Errorf("%d rescores; candidate-list lookups %v over the run, the last engine's alone %+v", res.Rescores, seen, own)
	}
}

// TestOnlineQGenCoalescesMutationBurst: a burst of events drains into a
// single re-score of the newest generation, and superseded event
// generations are released along the way.
func TestOnlineQGenCoalescesMutationBurst(t *testing.T) {
	g := fixtureGraph(t, 31)
	cfg := fixtureConfig(t, g, 0.05, 3)
	live := graph.NewLive(g)
	defer live.Close()
	ch := make(chan MutationEvent, 4)
	for i := 0; i < 3; i++ {
		if _, err := live.Apply([]graph.Mutation{{
			Op: graph.MutSetAttr, Node: graph.NodeID(i + 1),
			Attr: "yearsOfExp", Value: graph.Int(int64(i)),
		}}); err != nil {
			t.Fatal(err)
		}
		ch <- MutationEvent{Graph: live.Acquire()}
	}
	r := newRunnerT(t, cfg)
	defer r.Close()
	res, err := r.OnlineQGen(NewRandomStream(cfg.Template, 30, 7), OnlineOptions{
		K: 3, Window: 10, InitialEps: 0.05,
		Mutations: &ChanMutations{C: ch},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rescores != 1 {
		t.Fatalf("Rescores = %d, want 1 (burst must coalesce)", res.Rescores)
	}
	if got := r.Config().G.Version(); got != 4 {
		t.Fatalf("runner bound to version %d, want 4", got)
	}
	if err := r.Close(); err != nil { // idempotent with the deferred Close
		t.Fatal(err)
	}
}

// TestRetargetSameGraphNoop: retargeting to the generation already bound
// changes nothing, and a runner that never consumed mutations needs no
// cleanup.
func TestRetargetSameGraphNoop(t *testing.T) {
	g := fixtureGraph(t, 32)
	cfg := fixtureConfig(t, g, 0.1, 3)
	r := newRunnerT(t, cfg)
	e := r.engine
	r.Retarget(g)
	if r.engine != e || r.cfg.G != g {
		t.Fatal("Retarget to the bound generation rebuilt state")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRetargetReleasesOldGeneration: after Retarget the runner holds nothing
// that reaches the generation it left — engine, matchers, released matcher
// domains, memo, scorer and group index all moved on — so one GC cycle
// frees it (see
// match.TestRetiredGenerationCollectable for what used to pin it).
func TestRetargetReleasesOldGeneration(t *testing.T) {
	g1 := fixtureGraph(t, 33)
	finalized := make(chan struct{})
	r, g3 := func() (*Runner, *graph.Graph) {
		g2, _, err := graph.ApplyBatch(g1, []graph.Mutation{
			{Op: graph.MutSetAttr, Node: 1, Attr: "yearsOfExp", Value: graph.Int(3)},
		})
		if err != nil {
			t.Fatal(err)
		}
		g3, _, err := graph.ApplyBatch(g2, []graph.Mutation{{Op: graph.MutRemoveNode, Node: 4}})
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(g2, func(*graph.Graph) { close(finalized) })
		cfg := fixtureConfig(t, g2, 0.3, 3)
		r := newRunnerT(t, cfg)
		// A walk that held matcher domains, then the online run Retarget
		// exists for: neither leaves anything of g2 behind.
		if _, err := r.RfQGen(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.OnlineQGen(NewRandomStream(cfg.Template, 40, 99), OnlineOptions{K: 5, Window: 10}); err != nil {
			t.Fatal(err)
		}
		r.Retarget(g3)
		return r, g3
	}()
	runtime.GC()
	select {
	case <-finalized:
	case <-time.After(5 * time.Second):
		t.Fatal("the runner still reaches the retired generation after one GC")
	}
	if r.Config().G != g3 {
		t.Fatal("runner not on the new generation")
	}
}
