package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"fairsqg/internal/graph"
	"fairsqg/internal/groups"
	"fairsqg/internal/match"
	"fairsqg/internal/pareto"
	"fairsqg/internal/query"
)

// noInherit returns base with Config.DisableIncremental set — every plan
// from its label populations, no within, no matcher domains handed down the
// lattice: the configuration the core differential suite compares against
// the sequential reference, which has inheritance on.
func noInherit(base *Config) *Config {
	cfg := *base
	cfg.DisableIncremental = true
	return &cfg
}

// cycleConfig is fixtureConfig's problem over a template whose plans do
// inherit: a fixed edge keeps two nodes active from the root on, e1 brings
// a third in and e2 closes the cycle through it.
func cycleConfig(t testing.TB, g *graph.Graph) *Config {
	t.Helper()
	tpl, err := query.NewBuilder("cycle").
		Node("u_o", "Person").Literal("u_o", "title", graph.OpEQ, graph.Str("Director")).
		Node("u1", "Person").RangeVar("x1", "u1", "yearsOfExp", graph.OpGE).
		Node("u2", "Person").RangeVar("x2", "u2", "yearsOfExp", graph.OpLE).
		Edge("u1", "u_o", "recommend").
		VarEdge("e1", "u2", "u1", "recommend").
		VarEdge("e2", "u_o", "u2", "recommend").
		Output("u_o").Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := tpl.BindDomains(g, query.DomainOptions{MaxValues: 4}); err != nil {
		t.Fatal(err)
	}
	set := groups.EqualOpportunity(groups.ByAttribute(g, "Person", "gender"), 2)
	return &Config{G: g, Template: tpl, Groups: set, Eps: 0.2}
}

// archiveFingerprint renders a result set into a canonical comparable form:
// instance keys with their points (shortest exact form: equal strings are
// bit-equal floats) and match sets, in collectSet order.
func archiveFingerprint(set []*Verified) []string {
	out := make([]string, len(set))
	for i, v := range set {
		out[i] = fmt.Sprintf("%s|%v|%v|%v", v.Q.Key(), v.Point.Div, v.Point.Cov, v.Matches)
	}
	return out
}

// runAll exercises every offline algorithm on one config, and RunSlab over
// every slab of its plan, and returns the per-algorithm fingerprints: the
// archive, then the lattice counters no knob of the suite
// may move.
func runAll(t *testing.T, cfg *Config) map[string][]string {
	t.Helper()
	r := newRunnerT(t, cfg)
	out := map[string][]string{}
	counters := func(s Stats) string {
		return fmt.Sprintf("spawned=%d verified=%d feasible=%d pruned=%d", s.Spawned, s.Verified, s.Feasible, s.Pruned)
	}
	for _, alg := range []struct {
		name string
		run  func() (*Result, error)
	}{
		{"enum", r.EnumQGen},
		{"kungs", r.Kungs},
		{"rf", r.RfQGen},
		{"bi", r.BiQGen},
		{"par", func() (*Result, error) { return r.ParQGen(2) }},
		{"cbm", func() (*Result, error) { return r.CBM(CBMOptions{}) }},
	} {
		res, err := alg.run()
		if err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
		out[alg.name] = append(archiveFingerprint(res.Set), counters(res.Stats))
		if n := r.engine.Stats().DomainsHeld; n != 0 {
			t.Errorf("%s left %d matcher domains held", alg.name, n)
		}
	}
	plan := PlanSlabs(cfg.Template)
	for _, level := range plan.Levels {
		res, err := r.RunSlab(plan.SplitVar, level)
		if err != nil {
			t.Fatalf("slab %d: %v", level, err)
		}
		for _, e := range res.Entries {
			out["slabs"] = append(out["slabs"], fmt.Sprintf("%d|%v|%.9f|%.9f|%d", level, e.Bindings, e.Div, e.Cov, e.Matches))
		}
		out["slabs"] = append(out["slabs"], counters(res.Stats))
	}
	return out
}

// TestDifferentialEngineVsSequential runs the full algorithm suite on the
// canonical fixture with and without inheritance and asserts the
// ε-Pareto archives (instance keys, points, match sets, order) are
// identical to the sequential reference. The fixture seed is logged so a
// divergence reproduces.
func TestDifferentialEngineVsSequential(t *testing.T) {
	const seed = 4
	g := fixtureGraph(t, seed)
	for name, base := range map[string]*Config{"talent": fixtureConfig(t, g, 0.3, 3), "cycle": cycleConfig(t, g)} {
		ref := runAll(t, base)
		if len(ref["rf"]) < 2 {
			t.Fatalf("%s: rf archive %v: the fixture no longer yields a front", name, ref["rf"])
		}
		got := runAll(t, noInherit(base))
		for alg, want := range ref {
			if !equalStrings(got[alg], want) {
				t.Errorf("seed %d: %s: %s archive diverged from sequential reference:\ngot  %v\nwant %v",
					seed, name, alg, got[alg], want)
			}
		}
	}
}

// matcherDouble answers through one sequential matcher: what Config.Evaluator
// is to a test, a stand-in for the engine that shares none of its machinery.
type matcherDouble struct {
	mu sync.Mutex
	m  *match.Matcher
	n  int
}

func (d *matcherDouble) Answer(_ context.Context, q *query.Instance) []graph.NodeID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.m.EvalOutput(q)
}

func (d *matcherDouble) Population() int { return d.n }

// TestEvaluatorStandsInForEngine: the seam skips the matcher-side machinery
// (root seed, held domains, bound veto) and nothing else, so a subgraph
// template answered through it gives what the engine gives: archives,
// points, match sets and lattice counters of every algorithm and slab.
func TestEvaluatorStandsInForEngine(t *testing.T) {
	g := fixtureGraph(t, 4)
	for name, base := range map[string]*Config{"talent": fixtureConfig(t, g, 0.3, 3), "cycle": cycleConfig(t, g)} {
		double := *base
		double.Evaluator = &matcherDouble{m: match.New(g), n: g.CountLabel("Person")}
		want, got := runAll(t, base), runAll(t, &double)
		for alg := range want {
			if !equalStrings(got[alg], want[alg]) {
				t.Errorf("%s: %s through the evaluator diverged from the engine:\ngot  %v\nwant %v", name, alg, got[alg], want[alg])
			}
		}
		r := newRunnerT(t, &double)
		if res, err := r.ParQGen(2); err != nil || res.Stats.Matcher.Evals != 0 {
			t.Errorf("%s: evaluator run touched the engine: %+v, %v", name, res.Stats, err)
		}
	}
}

// TestDifferentialOnline asserts OnlineQGen yields the identical final set,
// ε and verification counters with root-seeded plans or each from its
// labels (noInherit): the stream order is fixed, so verification results
// are the only way the two could diverge.
func TestDifferentialOnline(t *testing.T) {
	const seed = 4
	g := fixtureGraph(t, seed)
	base := fixtureConfig(t, g, 0.3, 3)
	run := func(cfg *Config) ([]string, float64) {
		r := newRunnerT(t, cfg)
		stream := NewRandomStream(cfg.Template, 120, 99)
		res, err := r.OnlineQGen(stream, OnlineOptions{K: 5, Window: 20})
		if err != nil {
			t.Fatal(err)
		}
		if n := r.engine.Stats().DomainsHeld; n != 0 {
			t.Errorf("online left %d matcher domains held", n)
		}
		st := res.Stats
		return append(archiveFingerprint(res.Set), fmt.Sprintf("verified=%d feasible=%d", st.Verified, st.Feasible)), res.Eps
	}
	wantSet, wantEps := run(base)
	if gotSet, gotEps := run(noInherit(base)); gotEps != wantEps || !equalStrings(gotSet, wantSet) {
		t.Errorf("seed %d: online run diverged (eps %v vs %v)\ngot  %v\nwant %v",
			seed, gotEps, wantEps, gotSet, wantSet)
	}
}

// TestDifferentialMultiOutput covers the multi-output verification path,
// which routes through ParEvalNodeFiltered when the engine is enabled.
func TestDifferentialMultiOutput(t *testing.T) {
	const seed = 50
	base := multiOutputConfig(t, seed)
	run := func(cfg *Config) []string {
		r := newRunnerT(t, cfg)
		res, err := r.RfQGen()
		if err != nil {
			t.Fatal(err)
		}
		return archiveFingerprint(res.Set)
	}
	want := run(base)
	if got := run(noInherit(base)); !equalStrings(got, want) {
		t.Errorf("seed %d: multi-output archive diverged:\ngot  %v\nwant %v", seed, got, want)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestParetoArchiveParityParQGen double-checks that ParQGen with the
// concurrent engine still satisfies the ε-Pareto contract against the full
// feasible space (Theorem 2), not just equality with the sequential run.
func TestParetoArchiveParityParQGen(t *testing.T) {
	g := fixtureGraph(t, 4)
	cfg := fixtureConfig(t, g, 0.3, 3)
	r := newRunnerT(t, cfg)
	all, err := r.AllFeasible()
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]pareto.Point, len(all))
	for i, v := range all {
		ref[i] = v.Point
	}
	res, err := r.ParQGen(4)
	if err != nil {
		t.Fatal(err)
	}
	a := pareto.NewArchive[*Verified](cfg.Eps)
	for _, v := range res.Set {
		a.Update(v.Point, v)
	}
	if !a.EpsDominatesAll(ref) {
		t.Error("ParQGen(engine) set does not ε-dominate the feasible space")
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
