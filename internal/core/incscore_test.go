package core

import (
	"testing"

	"fairsqg/internal/match"
	"fairsqg/internal/measure"
)

// TestIncScoreDifferential is the lattice-wide bit-compatibility check for
// the subset-delta diversity scorer: every algorithm must produce exactly
// the same point sets whether the incremental path is on or off — the
// fixed-point accumulation makes the two scoring paths bit-identical, so
// samePointSets compares with ==.
func TestIncScoreDifferential(t *testing.T) {
	g := fixtureGraph(t, 21)
	algorithms := []struct {
		name string
		run  func(r *Runner) (*Result, error)
	}{
		{"enum", func(r *Runner) (*Result, error) { return r.EnumQGen() }},
		{"rf", func(r *Runner) (*Result, error) { return r.RfQGen() }},
		{"bi", func(r *Runner) (*Result, error) { return r.BiQGen() }},
		{"par", func(r *Runner) (*Result, error) { return r.ParQGen(2) }},
	}
	for _, alg := range algorithms {
		mk := func(disable bool) *Result {
			cfg := fixtureConfig(t, g, 0.3, 3)
			cfg.MaxPairs = -1 // exact scoring end to end
			cfg.DisableIncScore = disable
			res, err := alg.run(newRunnerT(t, cfg))
			if err != nil {
				t.Fatalf("%s disable=%v: %v", alg.name, disable, err)
			}
			return res
		}
		inc, noInc := mk(false), mk(true)
		if !samePointSets(inc.Points(), noInc.Points()) {
			t.Errorf("%s: incremental scoring changed results:\n%v\nvs\n%v",
				alg.name, inc.Points(), noInc.Points())
		}
		if alg.name != "enum" && inc.Stats.IncScores == 0 {
			t.Errorf("%s: refinement run took no incremental scores", alg.name)
		}
		if noInc.Stats.IncScores != 0 {
			t.Errorf("%s: ablated run counted %d incremental scores", alg.name, noInc.Stats.IncScores)
		}
	}
}

// TestIncScoreDifferentialMultiOutput extends the differential to the
// multiple-output-nodes mode, where the scored set is a union of per-node
// match sets (still refinement-monotone, so the delta path applies to the
// free-text bio's pair loop).
func TestIncScoreDifferentialMultiOutput(t *testing.T) {
	mk := func(disable bool) *Result {
		cfg := multiOutputConfig(t, 22)
		cfg.G = freeTextFixture(t, 22) // the same graph, plus bio
		cfg.DistanceAttrs = []string{"major", "bio"}
		cfg.MaxPairs = -1
		cfg.DisableIncScore = disable
		res, err := newRunnerT(t, cfg).RfQGen()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	inc, noInc := mk(false), mk(true)
	if !samePointSets(inc.Points(), noInc.Points()) {
		t.Errorf("multi-output incremental scoring changed results:\n%v\nvs\n%v",
			inc.Points(), noInc.Points())
	}
	if inc.Stats.IncScores == 0 {
		t.Error("multi-output run took no incremental scores")
	}
}

// TestIncScoreSampledBoundary: with a tiny MaxPairs every large set is
// sampled (nil scorer state), so the delta path must quietly stand down
// without changing any score.
func TestIncScoreSampledBoundary(t *testing.T) {
	g := fixtureGraph(t, 23)
	mk := func(disable bool) *Result {
		cfg := fixtureConfig(t, g, 0.3, 3)
		cfg.MaxPairs = 25
		cfg.DisableIncScore = disable
		res, err := newRunnerT(t, cfg).RfQGen()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	inc, noInc := mk(false), mk(true)
	if !samePointSets(inc.Points(), noInc.Points()) {
		t.Errorf("sampled-boundary runs diverged:\n%v\nvs\n%v", inc.Points(), noInc.Points())
	}
}

// TestLambdaSentinels: λ = 0 must be requestable (LambdaSet) while the
// plain zero value keeps selecting the documented default 0.5.
func TestLambdaSentinels(t *testing.T) {
	g := fixtureGraph(t, 24)
	lam := func(cfg *Config) float64 { return newRunnerT(t, cfg).div.Lambda }

	cfg := fixtureConfig(t, g, 0.3, 3)
	if got := lam(cfg); got != 0.5 {
		t.Errorf("unset Lambda → λ = %v, want default 0.5", got)
	}
	cfg = fixtureConfig(t, g, 0.3, 3)
	cfg.Lambda, cfg.LambdaSet = 0, true
	if got := lam(cfg); got != 0 {
		t.Errorf("explicit λ = 0 rewritten to %v", got)
	}
	cfg = fixtureConfig(t, g, 0.3, 3)
	cfg.Lambda = 0.3
	if got := lam(cfg); got != 0.3 {
		t.Errorf("λ = 0.3 became %v", got)
	}

	// λ = 0 must actually drop the pairwise term: every feasible point's
	// diversity is then the pure relevance sum, which the root maximizes.
	cfg = fixtureConfig(t, g, 0.3, 3)
	cfg.Lambda, cfg.LambdaSet = 0, true
	r := newRunnerT(t, cfg)
	all, err := r.AllFeasible()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatal("no feasible instances in fixture")
	}
	for _, v := range all {
		rel := 0.0
		for _, m := range v.Matches {
			rel += r.scoreRel(m)
		}
		if diff := v.Point.Div - rel; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("λ=0 diversity %v != relevance sum %v", v.Point.Div, rel)
		}
	}
}

// TestMaxPairsSentinels: 0 selects the default cap, negative requests
// exact scoring, positive passes through.
func TestMaxPairsSentinels(t *testing.T) {
	g := fixtureGraph(t, 25)
	mp := func(v int) int {
		cfg := fixtureConfig(t, g, 0.3, 3)
		cfg.MaxPairs = v
		return newRunnerT(t, cfg).div.MaxPairs
	}
	if got := mp(0); got != DefaultMaxPairs {
		t.Errorf("MaxPairs 0 → %d, want default %d", got, DefaultMaxPairs)
	}
	if got := mp(-1); got != 0 {
		t.Errorf("MaxPairs -1 → %d, want 0 (exact)", got)
	}
	if got := mp(7); got != 7 {
		t.Errorf("MaxPairs 7 → %d", got)
	}
}

// TestEngineSharedDistCache pins the engine-level counter contract: the
// default tuple distance is evaluated directly, so two identical runs over
// one external engine each report the same, non-zero number of evaluations
// (the free-text bio's pairs) and no cache traffic, and the engine
// accumulates both.
func TestEngineSharedDistCache(t *testing.T) {
	g := freeTextFixture(t, 26)
	engine := match.NewEngine(g, match.EngineOptions{})
	run := func() Stats {
		cfg := fixtureConfig(t, g, 0.3, 3)
		cfg.Engine = engine
		cfg.MaxPairs = -1
		res, err := newRunnerT(t, cfg).RfQGen()
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	first, second := run(), run()
	if first.DistCache.Evals == 0 {
		t.Fatal("first run evaluated no distances")
	}
	if second.DistCache != first.DistCache {
		t.Errorf("identical runs report different distance work: %+v vs %+v", first.DistCache, second.DistCache)
	}
	want := measure.PairCacheStats{Evals: first.DistCache.Evals}
	if first.DistCache != want {
		t.Errorf("direct path reports cache traffic: %+v", first.DistCache)
	}
	want.Evals *= 2
	if es := engine.Stats(); es.Dist != want {
		t.Errorf("engine stats %+v, want both runs' evaluations %+v", es.Dist, want)
	}
}

// TestPerRunDistCacheCounters: the distance counters are per run — a
// second invocation on one Runner starts from zero and, the work being
// deterministic, lands on the same count (the free-text bio's pairs).
// ParQGen folds its workers' counts to the same total whatever the worker
// count.
func TestPerRunDistCacheCounters(t *testing.T) {
	g := freeTextFixture(t, 27)
	cfg := fixtureConfig(t, g, 0.3, 3)
	cfg.MaxPairs = -1
	r := newRunnerT(t, cfg)
	a, err := r.RfQGen()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.RfQGen()
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.DistCache.Evals == 0 || a.Stats.DistCache.Hits != 0 {
		t.Fatalf("first run: %+v, want evals > 0 and no hits", a.Stats.DistCache)
	}
	if b.Stats.DistCache != a.Stats.DistCache {
		t.Errorf("second run on one Runner reports %+v, first %+v", b.Stats.DistCache, a.Stats.DistCache)
	}
	if !samePointSets(a.Points(), b.Points()) {
		t.Error("repeated runs diverged")
	}
	p1, err := r.ParQGen(1)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := r.ParQGen(3)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Stats.DistCache.Evals == 0 || p3.Stats.DistCache != p1.Stats.DistCache {
		t.Errorf("ParQGen distance work: 1 worker %+v, 3 workers %+v", p1.Stats.DistCache, p3.Stats.DistCache)
	}
}
