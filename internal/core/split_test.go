package core

import (
	"runtime"
	"sync/atomic"
	"testing"

	"fairsqg/internal/gen"
	"fairsqg/internal/graph"
	"fairsqg/internal/groups"
	"fairsqg/internal/measure"
	"fairsqg/internal/query"
)

// dbpSplitConfig asks a small DBP graph for movies by rating and year with
// an optionally awarded director, grouped and scored the way the gen-score
// workload is: the four largest genres, a free-text title among the
// distance attributes, 10,000 sampled pairs of answers in the hundreds to
// thousands — calls that split whenever a second processor is allowed.
func dbpSplitConfig(t testing.TB, g *graph.Graph) *Config {
	t.Helper()
	tpl := query.NewBuilder("movies").
		Node("m", "Movie").RangeVar("r", "m", "rating", graph.OpGE).RangeVar("y", "m", "year", graph.OpGE).
		Node("d", "Director").RangeVar("aw", "d", "awards", graph.OpGE).
		VarEdge("e1", "d", "m", "directed").
		Output("m").MustBuild()
	if err := tpl.BindDomains(g, query.DomainOptions{MaxValues: 3}); err != nil {
		t.Fatal(err)
	}
	set := groups.EqualOpportunity(groups.ByValues(g, "Movie", "genre", "Drama", "Romance", "Comedy", "Action"), 20)
	return &Config{G: g, Template: tpl, Groups: set, Eps: 0.05, MaxPairs: 10000,
		DistanceAttrs: []string{"genre", "rating", "year", "title"}}
}

// runAtProcs runs alg on a fresh runner over cfg with GOMAXPROCS set to p.
func runAtProcs(t *testing.T, p int, cfg *Config, run func(*Runner) (*Result, error)) *Result {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
	res, err := run(newRunnerT(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSplitScoringSameResults: how many goroutines a scoring call ran on
// changes no point, box or exploration counter of any walk; at GOMAXPROCS 1
// nothing splits, at 2 the sampled calls do.
func TestSplitScoringSameResults(t *testing.T) {
	g := gen.BuildDBP(gen.Options{Nodes: 4000, Seed: 3})
	for _, alg := range scoringAlgorithms {
		one := runAtProcs(t, 1, dbpSplitConfig(t, g), alg.run)
		two := runAtProcs(t, 2, dbpSplitConfig(t, g), alg.run)
		if !samePointSets(one.Points(), two.Points()) {
			t.Errorf("%s: points diverge:\n1 proc  %v\n2 procs %v", alg.name, one.Points(), two.Points())
		}
		if b1, b2 := boxesOf(one), boxesOf(two); !equalStrings(b1, b2) {
			t.Errorf("%s: archive boxes diverge:\n1 proc  %v\n2 procs %v", alg.name, b1, b2)
		}
		s1, s2 := one.Stats, two.Stats
		if s1.Verified != s2.Verified || s1.Feasible != s2.Feasible || s1.Pruned != s2.Pruned || s1.DistCache.Evals != s2.DistCache.Evals {
			t.Errorf("%s: exploration diverges: %d/%d/%d/%d at 1 proc, %d/%d/%d/%d at 2", alg.name,
				s1.Verified, s1.Feasible, s1.Pruned, s1.DistCache.Evals, s2.Verified, s2.Feasible, s2.Pruned, s2.DistCache.Evals)
		}
		if s1.ScoreSplits != 0 || s2.ScoreSplits == 0 || s2.Wall[PhaseScore] <= 0 {
			t.Errorf("%s: %d split scores at 1 proc, %d at 2 (%v scoring)", alg.name, s1.ScoreSplits, s2.ScoreSplits, s2.Wall[PhaseScore])
		}
	}
}

// TestCustomDistanceStaysOnCaller: a Config.Distance is entered by one
// goroutine at a time at GOMAXPROCS 4 on the calls that split under the
// default distance, and scores the same points. Both distances are over the
// free-text title alone, so both run the same pair loop. (ParQGen is left
// out: its workers share the run's distance by design.)
func TestCustomDistanceStaysOnCaller(t *testing.T) {
	g := gen.BuildDBP(gen.Options{Nodes: 4000, Seed: 3})
	attrs := []string{"title"}
	base := measure.TupleDistance(g, attrs)
	var inflight, peak atomic.Int64
	counted := func(v, w graph.NodeID) float64 {
		n := inflight.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		defer inflight.Add(-1)
		return base(v, w)
	}
	for _, alg := range scoringAlgorithms {
		if alg.name == "par" {
			continue
		}
		cfg := dbpSplitConfig(t, g)
		cfg.DistanceAttrs = attrs
		direct := runAtProcs(t, 4, cfg, alg.run)
		cfg.Distance = counted
		custom := runAtProcs(t, 4, cfg, alg.run)
		if custom.Stats.ScoreSplits != 0 || direct.Stats.ScoreSplits == 0 {
			t.Errorf("%s: %d split scores with a custom distance, %d with the default", alg.name,
				custom.Stats.ScoreSplits, direct.Stats.ScoreSplits)
		}
		if !samePointSets(direct.Points(), custom.Points()) {
			t.Errorf("%s: points diverge:\ndefault %v\ncustom  %v", alg.name, direct.Points(), custom.Points())
		}
	}
	if peak.Load() != 1 {
		t.Errorf("the custom distance was entered by %d goroutines at once", peak.Load())
	}
}
