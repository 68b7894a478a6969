package match_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"fairsqg/internal/core"
	"fairsqg/internal/graph"
	"fairsqg/internal/groups"
	"fairsqg/internal/match"
	"fairsqg/internal/pareto"
	"fairsqg/internal/query"
)

// bruteEvaluator answers every instance with the oracle on one graph: the
// core level's reference, a core.Evaluator sharing none of the engine's
// machinery. Answers are memoized by instance key (ParQGen's workers ask
// at once).
type bruteEvaluator struct {
	g    *graph.Graph
	mode match.Mode
	memo sync.Map
}

func (b *bruteEvaluator) Answer(_ context.Context, q *query.Instance) []graph.NodeID {
	a, ok := b.memo.Load(q.Key())
	if !ok {
		a, _ = b.memo.LoadOrStore(q.Key(), match.BruteForceMatches(b.g, q, b.mode, q.T.Output))
	}
	return slices.Clone(a.([]graph.NodeID))
}

func (b *bruteEvaluator) Population() int { return b.g.CountLabel("A") }

// equivFingerprint renders an archive's payloads — instance key and match
// set — with the bits of its (δ, f) points, in archive order, then the
// lattice counters.
func equivFingerprint(set []*core.Verified, st core.Stats) []string {
	out := make([]string, 0, len(set)+1)
	for _, v := range set {
		out = append(out, fmt.Sprintf("%s|%x|%x|%v", v.Q.Key(), math.Float64bits(v.Point.Div), math.Float64bits(v.Point.Cov), v.Matches))
	}
	return append(out, fmt.Sprintf("spawned=%d verified=%d feasible=%d pruned=%d", st.Spawned, st.Verified, st.Feasible, st.Pruned))
}

// checkCore is the core level. Every algorithm, every slab of PlanSlabs and
// OnlineQGen run on the case's backing through an engine, under the case's
// inheritance and without a budget (the matcher level checks budgets), and
// must give what they give on the heap graph when a bruteEvaluator answers:
// the same archive payloads, bit-equal points and the same
// Spawned/Verified/Feasible/Pruned.
func checkCore(t *testing.T, c *equivCase, reach equivReach) {
	t.Helper()
	config := func(g *graph.Graph) *core.Config {
		set := groups.EqualOpportunity(groups.ByAttribute(g, "A", "k"), c.cover)
		for i := range set {
			set[i].Want = min(set[i].Want, set[i].Size())
		}
		return &core.Config{G: g, Template: c.tpl, Groups: set, Eps: c.eps, Settings: match.Settings{Mode: c.settings.Mode}}
	}
	brute := &bruteEvaluator{g: c.heap, mode: c.settings.Mode}
	want, fronts := equivSuite(t, c, func() *core.Config {
		cfg := config(c.heap)
		cfg.Evaluator = brute
		return cfg
	})
	got, _ := equivSuite(t, c, func() *core.Config {
		cfg := config(c.g)
		cfg.DisableIncremental = c.inherit == "DisableIncremental"
		cfg.DisableIncScore = c.inherit == "DisableIncScore"
		cfg.Engine = match.NewEngine(c.g, match.EngineOptions{Settings: cfg.Settings})
		return cfg
	})
	reach.met("an rf front of two", len(fronts["rf"]) >= 2)
	for alg, w := range want {
		if !slices.Equal(got[alg], w) {
			t.Errorf("%v: %s diverged from the brute-force run:\ngot  %v\nwant %v", c, alg, got[alg], w)
		}
	}
}

// equivSuite runs every algorithm, every slab and OnlineQGen, each on a
// runner of its own over cfg(), and returns their fingerprints and the batch
// algorithms' points. A run on an engine must hand every matcher domain
// back to it, one answered by an Evaluator must leave the matcher unused,
// and the archives of enum, rf, bi and par must ε-cover AllFeasible
// (Theorem 2).
func equivSuite(t *testing.T, c *equivCase, cfg func() *core.Config) (map[string][]string, map[string][]pareto.Point) {
	t.Helper()
	engines := map[string]*match.Engine{}
	runner := func(name string) *core.Runner {
		cf := cfg()
		r, err := core.NewRunner(cf)
		if err != nil {
			t.Fatalf("%v: %s: %v", c, name, err)
		}
		engines[name] = cf.Engine // nil when an Evaluator answers
		return r
	}
	out := map[string][]string{}
	points := map[string][]pareto.Point{}
	for _, alg := range append(core.AlgorithmNames(), "all") { // every batch algorithm, and AllFeasible
		r := runner(alg)
		res := new(core.Result)
		var err error
		if alg == "all" {
			res.Set, err = r.AllFeasible()
		} else {
			res, err = r.Run(alg, 2)
		}
		if err != nil {
			t.Fatalf("%v: %s: %v", c, alg, err)
		}
		if engines[alg] == nil && res.Stats.Matcher.Evals != 0 {
			t.Errorf("%v: %s answered by the evaluator evaluated %d instances on the engine", c, alg, res.Stats.Matcher.Evals)
		}
		out[alg], points[alg] = equivFingerprint(res.Set, res.Stats), res.Points()
	}
	plan := core.PlanSlabs(c.tpl)
	for _, level := range plan.Levels {
		r := runner(fmt.Sprint("slab ", level))
		res, err := r.RunSlab(plan.SplitVar, level)
		if err != nil {
			t.Fatalf("%v: slab %d: %v", c, level, err)
		}
		for _, e := range res.Entries {
			out["slabs"] = append(out["slabs"], fmt.Sprintf("%d|%v|%x|%x|%d", level, e.Bindings, math.Float64bits(e.Div), math.Float64bits(e.Cov), e.Matches))
		}
		out["slabs"] = append(out["slabs"], equivFingerprint(nil, res.Stats)...)
	}
	r := runner("online")
	on, err := r.OnlineQGen(core.NewRandomStream(c.tpl, 40, c.seed), core.OnlineOptions{K: 4, Window: 8})
	if err != nil {
		t.Fatalf("%v: online: %v", c, err)
	}
	out["online"] = append(equivFingerprint(on.Set, on.Stats), fmt.Sprintf("eps=%x", math.Float64bits(on.Eps)))
	for name, e := range engines {
		if e != nil && e.Stats().DomainsHeld != 0 {
			t.Errorf("%v: %s left %d matcher domains held", c, name, e.Stats().DomainsHeld)
		}
	}
	for _, alg := range []string{"enum", "rf", "bi", "par"} {
		for _, f := range points["all"] {
			if !slices.ContainsFunc(points[alg], func(a pareto.Point) bool { return pareto.EpsDominates(a, f, c.eps) }) {
				t.Errorf("%v: %s's archive does not ε-cover the feasible point %v", c, alg, f)
			}
		}
	}
	return out, points
}
