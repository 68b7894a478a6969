package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"fairsqg/internal/graph"
	"fairsqg/internal/match"
)

// TestCancelledContextAborts verifies every algorithm honors a cancelled
// run context: it returns the context's error instead of a partial set.
func TestCancelledContextAborts(t *testing.T) {
	g := fixtureGraph(t, 7)
	cfg := fixtureConfig(t, g, 0.2, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg.Ctx = ctx

	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	algs := map[string]func() (*Result, error){
		"enum":  r.EnumQGen,
		"rf":    r.RfQGen,
		"bi":    r.BiQGen,
		"kungs": r.Kungs,
		"par":   func() (*Result, error) { return r.ParQGen(2) },
		"cbm":   func() (*Result, error) { return r.CBM(CBMOptions{}) },
	}
	for name, run := range algs {
		res, err := run()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: want context.Canceled, got result=%v err=%v", name, res, err)
		}
	}
	if _, err := r.AllFeasible(); !errors.Is(err, context.Canceled) {
		t.Errorf("AllFeasible: want context.Canceled, got %v", err)
	}
}

// TestDeadlineStopsMidRun cancels every algorithm at its 1st, 3rd and 10th
// verification (OnlineQGen after a batch has retargeted it): the run stops
// with the context's error after at most one more verification —
// ParQGen's other fork may have one under way — and every matcher domain it
// held, the lineage's links and the root's, is back on its engine.
func TestDeadlineStopsMidRun(t *testing.T) {
	g := fixtureGraph(t, 8)
	cycle := func() *Config { return cycleConfig(t, g) }
	run := func(f func(r *Runner) (*Result, error)) func(r *Runner) error {
		return func(r *Runner) error { _, err := f(r); return err }
	}
	cases := []struct {
		name string
		cfg  func() *Config
		run  func(r *Runner) error
	}{
		{"enum", cycle, run((*Runner).EnumQGen)},
		{"kungs", cycle, run((*Runner).Kungs)},
		{"rf", cycle, run((*Runner).RfQGen)},
		{"rf/talent", func() *Config { return fixtureConfig(t, g, 0.05, 2) }, run((*Runner).RfQGen)},
		{"bi", cycle, run((*Runner).BiQGen)},
		{"par", cycle, func(r *Runner) error { _, err := r.ParQGen(2); return err }},
		{"cbm", cycle, func(r *Runner) error { _, err := r.CBM(CBMOptions{}); return err }},
		{"allfeasible", cycle, func(r *Runner) error { _, err := r.AllFeasible(); return err }},
		{"online", cycle, func(r *Runner) error {
			live := graph.NewLive(g)
			defer live.Close()
			defer r.Close()
			stream := &mutatingStream{inner: NewRandomStream(r.cfg.Template, 60, 3), at: 2, fire: func() {
				_, err := live.Apply([]graph.Mutation{{Op: graph.MutRemoveNode, Node: 0}})
				must(t, err)
			}}
			_, err := r.OnlineQGen(stream, OnlineOptions{K: 4, Window: 20, Mutations: &LiveMutations{L: live}})
			return err
		}},
	}
	for _, c := range cases {
		for _, at := range []int32{1, 3, 10} {
			cfg := c.cfg()
			ctx, cancel := context.WithCancel(context.Background())
			cfg.Ctx = ctx
			var seen atomic.Int32 // ParQGen's forks verify concurrently
			cfg.OnVerified = func(VerifyEvent) {
				if seen.Add(1) == at {
					cancel()
				}
			}
			r := newRunnerT(t, cfg)
			err := c.run(r)
			cancel()
			if !errors.Is(err, context.Canceled) || seen.Load() > at+1 {
				t.Errorf("%s cancelled at %d: %v after %d verifications", c.name, at, err, seen.Load())
			}
			if n := r.engine.Stats().DomainsHeld; n != 0 {
				t.Errorf("%s cancelled at %d: %d matcher domains still held", c.name, at, n)
			}
		}
	}
}

// TestExternalEngineSharedAcrossRuns checks that an injected Config.Engine
// survives resetStats, keeps its candidate cache warm across runs, and
// yields results identical to the reference path.
func TestExternalEngineSharedAcrossRuns(t *testing.T) {
	g := fixtureGraph(t, 9)
	ref := fixtureConfig(t, g, 0.2, 3)
	rr, err := NewRunner(ref)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rr.BiQGen()
	if err != nil {
		t.Fatal(err)
	}

	engine := match.NewEngine(g, match.EngineOptions{})
	cfg := fixtureConfig(t, g, 0.2, 3)
	cfg.Engine = engine
	r1, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got1, err := r1.BiQGen()
	if err != nil {
		t.Fatal(err)
	}
	hitsAfter1 := engine.Stats().Cache.Hits

	cfg2 := fixtureConfig(t, g, 0.2, 3)
	cfg2.Engine = engine
	r2, err := NewRunner(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := r2.BiQGen()
	if err != nil {
		t.Fatal(err)
	}
	if engine.Stats().Cache.Hits <= hitsAfter1 {
		t.Errorf("second run added no candidate-cache hits: %d then %d", hitsAfter1, engine.Stats().Cache.Hits)
	}
	for i, got := range [][]*Verified{got1.Set, got2.Set} {
		if len(got) != len(want.Set) {
			t.Fatalf("run %d: set size %d != reference %d", i+1, len(got), len(want.Set))
		}
		for j := range got {
			if got[j].Q.Key() != want.Set[j].Q.Key() || got[j].Point != want.Set[j].Point {
				t.Errorf("run %d: entry %d differs from reference", i+1, j)
			}
		}
	}

	// An engine over a different graph is rejected up front.
	other := fixtureGraph(t, 10)
	bad := fixtureConfig(t, other, 0.2, 3)
	bad.Engine = engine
	if _, err := NewRunner(bad); err == nil {
		t.Error("engine bound to a different graph accepted")
	}
}

// TestDomainsReturnToEngine: the runner holds matcher domains — the root's,
// and a walker's path — only while an algorithm runs: after each of them,
// completed or cancelled mid-walk, every buffer is back on
// the engine — and they do use them: on the cycle template plans inherit
// arcs unless inheritance is off.
func TestDomainsReturnToEngine(t *testing.T) {
	g := fixtureGraph(t, 4)
	algs := map[string]func(r *Runner) error{
		"rf":    func(r *Runner) error { _, err := r.RfQGen(); return err },
		"par":   func(r *Runner) error { _, err := r.ParQGen(2); return err },
		"bi":    func(r *Runner) error { _, err := r.BiQGen(); return err },
		"slab":  func(r *Runner) error { _, err := r.RunSlab(-1, 0); return err },
		"enum":  func(r *Runner) error { _, err := r.EnumQGen(); return err },
		"kungs": func(r *Runner) error { _, err := r.Kungs(); return err },
		"all":   func(r *Runner) error { _, err := r.AllFeasible(); return err },
		"cbm":   func(r *Runner) error { _, err := r.CBM(CBMOptions{}); return err },
		"online": func(r *Runner) error {
			_, err := r.OnlineQGen(NewRandomStream(r.cfg.Template, 40, 3), OnlineOptions{K: 4, Window: 8})
			return err
		},
	}
	for name, run := range algs {
		for _, cancelAt := range []int{0, 1, 7} { // 0: run to completion
			for _, noInherit := range []bool{false, true} {
				cfg := cycleConfig(t, g)
				cfg.DisableIncremental = noInherit
				cfg.Engine = match.NewEngine(g, match.EngineOptions{})
				ctx, cancel := context.WithCancel(context.Background())
				cfg.Ctx = ctx
				var mu sync.Mutex // par verifies on two goroutines
				seen := 0
				cfg.OnVerified = func(VerifyEvent) {
					mu.Lock()
					defer mu.Unlock()
					if seen++; seen == cancelAt {
						cancel()
					}
				}
				err := run(newRunnerT(t, cfg))
				cancel()
				if cancelAt == 0 && err != nil || cancelAt > 0 && !errors.Is(err, context.Canceled) {
					t.Fatalf("%s cancelAt=%d: err %v", name, cancelAt, err)
				}
				if n := cfg.Engine.Stats().DomainsHeld; n != 0 {
					t.Errorf("%s cancelAt=%d inherit=%v: %d matcher domains still held", name, cancelAt, !noInherit, n)
				}
				if st := cfg.Engine.Stats(); cancelAt == 0 && (st.ArcsInherited > 0) == noInherit {
					t.Errorf("%s inherit=%v: %d arcs inherited, %d revised", name, !noInherit, st.ArcsInherited, st.ArcsRevised)
				}
			}
		}
	}
}
