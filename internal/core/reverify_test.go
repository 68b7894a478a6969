package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fairsqg/internal/gen"
	"fairsqg/internal/graph"
	"fairsqg/internal/query"
)

// liveCase is an online run that follows five mutation batches: each removes
// a tenth of the root's answer on the base graph and adds a node of the
// output label.
type liveCase struct {
	name  string
	cfg   *Config
	batch func(i int) []graph.Mutation
}

func liveCases(t *testing.T) []liveCase {
	dbp := gen.BuildDBP(gen.Options{Nodes: 2000, Seed: 3})
	cases := []liveCase{
		{name: "lki/cycle", cfg: cycleConfig(t, fixtureGraph(t, 4))},
		{name: "lki/talent", cfg: fixtureConfig(t, fixtureGraph(t, 30), 0.05, 3)},
		{name: "dbp/movies", cfg: dbpSplitConfig(t, dbp)},
	}
	for i := range cases {
		cfg := cases[i].cfg
		root := newRunnerT(t, cfg).verify(query.MustInstance(cfg.Template, query.Root(cfg.Template)), nil).Matches
		label := cfg.Template.Nodes[cfg.Template.Output].Label
		cases[i].batch = func(i int) []graph.Mutation {
			muts := []graph.Mutation{{Op: graph.MutAddNode, Label: label}}
			for _, id := range root[i*len(root)/10 : (i+1)*len(root)/10] {
				muts = append(muts, graph.Mutation{Op: graph.MutRemoveNode, Node: id})
			}
			return muts
		}
	}
	return cases
}

// liveRun is what one online run over a liveCase recorded.
type liveRun struct {
	res    *OnlineResult
	err    error
	events []string
	r      *Runner
}

// runLive runs c's online run at GOMAXPROCS procs, a batch landing every 12
// arrivals; onEvent, when set, sees every OnVerified event.
func runLive(t *testing.T, c liveCase, procs int, cfg Config, onEvent func(n int)) liveRun {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	live := graph.NewLive(c.cfg.G)
	defer live.Close()
	var run liveRun
	cfg.OnVerified = func(ev VerifyEvent) {
		run.events = append(run.events, fmt.Sprintf("%d %s %v %v %v %d", ev.Seq, ev.Instance.Key(), ev.Point.Div, ev.Point.Cov, ev.Feasible, ev.Matches))
		if onEvent != nil {
			onEvent(len(run.events))
		}
	}
	run.r = newRunnerT(t, &cfg)
	defer run.r.Close()
	var stream InstanceStream = NewRandomStream(cfg.Template, 72, 5)
	for i := 0; i < 5; i++ {
		stream = &mutatingStream{inner: stream, at: 12 * (i + 1), fire: func() { _, err := live.Apply(c.batch(i)); must(t, err) }}
	}
	run.res, run.err = run.r.OnlineQGen(stream, OnlineOptions{K: 6, Window: 30, Mutations: &LiveMutations{L: live}})
	if n := run.r.engine.Stats().DomainsHeld; n != 0 {
		t.Errorf("%s at %d procs: %d matcher domains held after the run", c.name, procs, n)
	}
	return run
}

// TestReverifyCancelInLevel: a run cancelled between two commits of a level,
// or at any moment of its evaluations, returns context.Canceled, and what it
// recorded is a prefix of the uncancelled run: every event it fired is the
// full run's, in order, and each record in the memo fired one.
func TestReverifyCancelInLevel(t *testing.T) {
	c := liveCases(t)[0]
	var inLevel []int // the full run's events that a level's commit fired
	start := time.Now()
	full := runLive(t, c, 2, *c.cfg, func(n int) {
		pc := make([]uintptr, 32)
		frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
		for f, more := frames.Next(); more; f, more = frames.Next() {
			if strings.HasSuffix(f.Function, ".(*Runner).reverify") {
				inLevel = append(inLevel, n)
			}
		}
	})
	took := time.Since(start)
	must(t, full.err)
	if len(inLevel) < 50 {
		t.Fatalf("fixture: %d events fired by re-verification", len(inLevel))
	}
	check := func(what string, cut liveRun) {
		t.Helper()
		if !errors.Is(cut.err, context.Canceled) {
			t.Fatalf("%s: err %v", what, cut.err)
		}
		if n := len(cut.events); cut.r.verSeq != n || !equalStrings(cut.events, full.events[:n]) {
			t.Fatalf("%s: %d events (%d counted), not the full run's first ones", what, n, cut.r.verSeq)
		}
		fired := map[string]bool{}
		for _, ev := range cut.events {
			fired[strings.Fields(ev)[1]] = true
		}
		for key := range cut.r.cache {
			if !fired[key] {
				t.Errorf("%s: %s is in the memo without an event", what, key)
			}
		}
	}
	for i := 0; i < len(inLevel); i += len(inLevel) / 8 {
		at := inLevel[i]
		ctx, cancel := context.WithCancel(context.Background())
		cfg := *c.cfg
		cfg.Ctx = ctx
		cut := runLive(t, c, 2, cfg, func(n int) {
			if n == at {
				cancel()
			}
		})
		cancel()
		check(fmt.Sprintf("cancelled at event %d", at), cut)
		if len(cut.events) != at {
			t.Errorf("cancelled at event %d: %d events fired", at, len(cut.events))
		}
	}
	for k := 1; k < 8; k++ {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := *c.cfg
		cfg.Ctx = ctx
		timer := time.AfterFunc(took*time.Duration(k)/8, cancel)
		if cut := runLive(t, c, 2, cfg, nil); cut.err != nil {
			check(fmt.Sprintf("cancelled after %d/8 of a run", k), cut)
		}
		timer.Stop()
		cancel()
	}
}

// TestReverifyKeepsCallerFunctionsOnCaller: with a custom Distance or
// Relevance the level walk never enters either from two goroutines at once,
// at four processors.
func TestReverifyKeepsCallerFunctionsOnCaller(t *testing.T) {
	var inflight, peak atomic.Int64
	enter := func() func() {
		n := inflight.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		return func() { inflight.Add(-1) }
	}
	for _, c := range liveCases(t) {
		for _, custom := range []string{"distance", "relevance"} {
			cfg := *c.cfg
			if custom == "distance" {
				cfg.Distance = func(v, w graph.NodeID) float64 {
					defer enter()()
					return float64((v^w)%7) / 7
				}
			} else {
				cfg.Relevance = func(v graph.NodeID) float64 {
					defer enter()()
					return float64(v%5) / 5
				}
			}
			run := runLive(t, c, 4, cfg, nil)
			must(t, run.err)
			if run.res.Rescores != 5 {
				t.Fatalf("%s/%s: %d re-scores", c.name, custom, run.res.Rescores)
			}
		}
	}
	if peak.Load() != 1 {
		t.Errorf("a caller-supplied function was entered by %d goroutines at once", peak.Load())
	}
}
