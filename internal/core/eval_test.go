package core

import (
	"testing"

	"fairsqg/internal/match"
	"fairsqg/internal/query"
)

// TestVerifyCache: repeated verification of the same instance hits the
// cache (one matcher eval, one verified counter increment).
func TestVerifyCache(t *testing.T) {
	g := fixtureGraph(t, 40)
	cfg := fixtureConfig(t, g, 0.3, 3)
	r := newRunnerT(t, cfg)
	root := query.MustInstance(cfg.Template, query.Root(cfg.Template))
	v1 := r.verify(root, nil)
	evalsAfterFirst := r.Stats().Matcher.Evals
	v2 := r.verify(root, nil)
	if v1 != v2 {
		t.Error("cache miss on identical instance")
	}
	if r.Stats().Matcher.Evals != evalsAfterFirst {
		t.Error("cached verification re-ran the matcher")
	}
	if r.Stats().Verified != 1 {
		t.Errorf("verified counter = %d", r.Stats().Verified)
	}
}

// TestRunnerReuse: running two algorithms on one Runner resets counters and
// caches between runs and produces equal-quality sets.
func TestRunnerReuse(t *testing.T) {
	g := fixtureGraph(t, 41)
	cfg := fixtureConfig(t, g, 0.3, 3)
	r := newRunnerT(t, cfg)
	res1, err := r.RfQGen()
	if err != nil {
		t.Fatal(err)
	}
	res2, err := r.EnumQGen()
	if err != nil {
		t.Fatal(err)
	}
	// Counters reset between runs: the enumerator's count equals the
	// instance space, not the sum of both runs.
	if res2.Stats.Verified > cfg.Template.InstanceSpaceSize() {
		t.Errorf("stats leaked across runs: %d > %d", res2.Stats.Verified, cfg.Template.InstanceSpaceSize())
	}
	if res1.Stats.Verified > res2.Stats.Verified {
		t.Errorf("RfQGen verified more than Enum: %d vs %d", res1.Stats.Verified, res2.Stats.Verified)
	}
	if !samePointSets(res1.Points(), res2.Points()) {
		t.Error("algorithms disagree after reuse")
	}
}

// TestHomomorphismMode: homomorphism matching admits at least the
// isomorphism answers and the pipeline stays valid end to end.
func TestHomomorphismMode(t *testing.T) {
	g := fixtureGraph(t, 42)
	iso := fixtureConfig(t, g, 0.3, 3)
	hom := fixtureConfig(t, g, 0.3, 3)
	hom.Mode = match.Homomorphism
	isoRes, err := newRunnerT(t, iso).RfQGen()
	if err != nil {
		t.Fatal(err)
	}
	homRes, err := newRunnerT(t, hom).RfQGen()
	if err != nil {
		t.Fatal(err)
	}
	if len(homRes.Set) == 0 || len(isoRes.Set) == 0 {
		t.Fatal("empty results")
	}
	// The most relaxed feasible instance must not lose matches when
	// injectivity is dropped.
	isoRoot := isoRes.Set[0]
	homRoot := homRes.Set[0]
	if len(homRoot.Matches) < len(isoRoot.Matches) {
		t.Errorf("homomorphism lost matches: %d < %d", len(homRoot.Matches), len(isoRoot.Matches))
	}
}

// TestResultPoints: Points mirrors the set's coordinates.
func TestResultPoints(t *testing.T) {
	g := fixtureGraph(t, 43)
	cfg := fixtureConfig(t, g, 0.3, 3)
	res, err := newRunnerT(t, cfg).RfQGen()
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Points()
	if len(pts) != len(res.Set) {
		t.Fatal("length mismatch")
	}
	for i := range pts {
		if pts[i] != res.Set[i].Point {
			t.Fatal("points drifted")
		}
	}
	// collectSet orders by decreasing diversity.
	for i := 1; i < len(res.Set); i++ {
		if res.Set[i].Point.Div > res.Set[i-1].Point.Div {
			t.Fatal("result not ordered by diversity")
		}
	}
}

// TestOnVerifiedSeesBoundPrunedInstances: the trace hook fires for
// bound-pruned (certainly infeasible) instances too, with Feasible=false.
func TestOnVerifiedSeesBoundPrunedInstances(t *testing.T) {
	g := fixtureGraph(t, 44)
	cfg := fixtureConfig(t, g, 0.3, 3)
	infeasibleSeen := 0
	cfg.OnVerified = func(ev VerifyEvent) {
		if !ev.Feasible {
			infeasibleSeen++
		}
	}
	if _, err := newRunnerT(t, cfg).EnumQGen(); err != nil {
		t.Fatal(err)
	}
	if infeasibleSeen == 0 {
		t.Error("no infeasible instances traced; fixture too easy or hook broken")
	}
}

// TestRunNamesEveryAlgorithm: the one name→run table. Every listed name
// runs, par takes the worker count, and an unlisted name is an error.
func TestRunNamesEveryAlgorithm(t *testing.T) {
	g := fixtureGraph(t, 40)
	cfg := fixtureConfig(t, g, 0.3, 3)
	r := newRunnerT(t, cfg)
	names := AlgorithmNames()
	if want := []string{"bi", "cbm", "enum", "kungs", "par", "rf"}; !equalStrings(names, want) {
		t.Fatalf("AlgorithmNames = %v, want %v", names, want)
	}
	for _, name := range names {
		res, err := r.Run(name, 2)
		if err != nil || len(res.Set) == 0 {
			t.Errorf("%s: %v, %v", name, res, err)
		}
	}
	if res, err := r.Run("online", 0); err == nil {
		t.Errorf("Run(online) = %v: it needs a stream, so it is not in the table", res)
	}
}
