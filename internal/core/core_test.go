package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"fairsqg/internal/graph"
	"fairsqg/internal/groups"
	"fairsqg/internal/match"
	"fairsqg/internal/measure"
	"fairsqg/internal/pareto"
	"fairsqg/internal/query"
)

// fixtureGraph builds a seeded professional network small enough for
// exhaustive enumeration in tests: ~300 persons with gender/experience
// attributes, 15 orgs, recommend/worksAt edges.
func fixtureGraph(t testing.TB, seed int64) *graph.Graph {
	return fixtureGraphExtra(t, seed, nil)
}

// fixtureGraphExtra is fixtureGraph with extra attributes on person i
// (drawn outside the fixture's random stream, so the rest of the graph is
// the canonical one).
func fixtureGraphExtra(t testing.TB, seed int64, extra func(i int) map[string]graph.Value) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	numPersons, numOrgs := 300, 15
	persons := make([]graph.NodeID, numPersons)
	titles := []string{"Director", "Engineer", "Manager", "Analyst"}
	majors := []string{"cs", "math", "bio", "econ", "art", "law"}
	for i := range persons {
		gender := "male"
		if rng.Float64() < 0.4 {
			gender = "female"
		}
		title := titles[rng.Intn(len(titles))]
		if i%4 == 0 {
			title = "Director" // keep the output label populated
		}
		attrs := map[string]graph.Value{
			"gender":     graph.Str(gender),
			"title":      graph.Str(title),
			"major":      graph.Str(majors[rng.Intn(len(majors))]),
			"yearsOfExp": graph.Int(int64(rng.Intn(20))),
		}
		if extra != nil {
			for k, v := range extra(i) {
				attrs[k] = v
			}
		}
		persons[i] = g.AddNode("Person", attrs)
	}
	orgs := make([]graph.NodeID, numOrgs)
	for i := range orgs {
		orgs[i] = g.AddNode("Org", map[string]graph.Value{
			"employees": graph.Int(int64(10 + rng.Intn(5000))),
		})
	}
	for _, p := range persons {
		if err := g.AddEdge(p, orgs[rng.Intn(numOrgs)], "worksAt"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < numPersons*5; i++ {
		from := persons[rng.Intn(numPersons)]
		to := persons[rng.Intn(numPersons)]
		if from != to {
			if err := g.AddEdge(from, to, "recommend"); err != nil {
				t.Fatal(err)
			}
		}
	}
	g.Freeze()
	return g
}

// fixtureConfig builds the canonical test configuration: talent template
// with 2 range variables and 1 edge variable, gender groups with equal
// opportunity constraints.
func fixtureConfig(t testing.TB, g *graph.Graph, eps float64, want int) *Config {
	t.Helper()
	tpl, err := query.NewBuilder("talent").
		Node("u_o", "Person").Literal("u_o", "title", graph.OpEQ, graph.Str("Director")).
		Node("u1", "Person").RangeVar("x1", "u1", "yearsOfExp", graph.OpGE).
		Node("o", "Org").RangeVar("x2", "o", "employees", graph.OpGE).
		VarEdge("e1", "u1", "u_o", "recommend").
		Edge("u1", "o", "worksAt").
		Output("u_o").Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := tpl.BindDomains(g, query.DomainOptions{MaxValues: 5}); err != nil {
		t.Fatal(err)
	}
	set := groups.EqualOpportunity(groups.ByAttribute(g, "Person", "gender"), want)
	return &Config{G: g, Template: tpl, Groups: set, Eps: eps}
}

func TestConfigValidate(t *testing.T) {
	g := fixtureGraph(t, 1)
	good := fixtureConfig(t, g, 0.3, 3)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := *good
	bad.Eps = 0
	if err := bad.Validate(); err == nil {
		t.Error("eps=0 accepted")
	}
	for _, eps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad = *good
		bad.Eps = eps
		if err := bad.Validate(); err == nil {
			t.Errorf("eps=%g accepted", eps)
		}
	}
	bad = *good
	bad.Groups = nil
	if err := bad.Validate(); err == nil {
		t.Error("no groups accepted")
	}
	bad = *good
	bad.Lambda = 2
	if err := bad.Validate(); err == nil {
		t.Error("lambda=2 accepted")
	}
	bad = *good
	bad.Lambda = math.NaN()
	if err := bad.Validate(); err == nil {
		t.Error("lambda=NaN accepted")
	}
	bad = *good
	bad.G = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil graph accepted")
	}
	// Unbound ladders are rejected.
	tpl2, err := query.NewBuilder("t").
		Node("a", "Person").RangeVar("x", "a", "yearsOfExp", graph.OpGE).
		Output("a").Build()
	if err != nil {
		t.Fatal(err)
	}
	bad = *good
	bad.Template = tpl2
	if err := bad.Validate(); err == nil {
		t.Error("unbound ladder accepted")
	}
}

func TestEnumerateInstantiations(t *testing.T) {
	g := fixtureGraph(t, 1)
	cfg := fixtureConfig(t, g, 0.3, 3)
	count := 0
	seen := map[string]bool{}
	EnumerateInstantiations(cfg.Template, func(in query.Instantiation) bool {
		count++
		seen[in.Key()] = true
		return true
	})
	want := cfg.Template.InstanceSpaceSize() // (5+1)*(5+1)*2 = 72
	if count != want || len(seen) != want {
		t.Errorf("enumerated %d (%d unique), want %d", count, len(seen), want)
	}
	// Early stop.
	count = 0
	EnumerateInstantiations(cfg.Template, func(query.Instantiation) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop at %d", count)
	}
}

// newRunnerT builds a runner or fails the test.
func newRunnerT(t testing.TB, cfg *Config) *Runner {
	t.Helper()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestAlgorithmsProduceValidEpsParetoSets is the central cross-check: for
// several seeds, EnumQGen, RfQGen and BiQGen must all return sets that
// ε-dominate every feasible instance of I(Q), and Kungs must return the
// exact Pareto front.
func TestAlgorithmsProduceValidEpsParetoSets(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g := fixtureGraph(t, seed)
		cfg := fixtureConfig(t, g, 0.3, 3)
		ref, err := newRunnerT(t, cfg).AllFeasible()
		if err != nil {
			t.Fatal(err)
		}
		if len(ref) == 0 {
			t.Fatalf("seed %d: fixture has no feasible instances", seed)
		}
		refPoints := make([]pareto.Point, len(ref))
		for i, v := range ref {
			refPoints[i] = v.Point
		}

		runs := []struct {
			name string
			run  func(*Runner) (*Result, error)
		}{
			{"EnumQGen", (*Runner).EnumQGen},
			{"RfQGen", (*Runner).RfQGen},
			{"BiQGen", (*Runner).BiQGen},
		}
		for _, alg := range runs {
			res, err := alg.run(newRunnerT(t, cfg))
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, alg.name, err)
			}
			if len(res.Set) == 0 {
				t.Fatalf("seed %d %s: empty result", seed, alg.name)
			}
			em := pareto.MinEps(res.Points(), refPoints)
			if em > cfg.Eps+1e-9 {
				t.Errorf("seed %d %s: ε_m = %v exceeds ε = %v", seed, alg.name, em, cfg.Eps)
			}
			// Every returned instance must be feasible and mutually
			// non-dominated.
			for i, v := range res.Set {
				if !v.Feasible {
					t.Errorf("seed %d %s: infeasible instance in result", seed, alg.name)
				}
				for j, w := range res.Set {
					if i != j && pareto.Dominates(w.Point, v.Point) {
						t.Errorf("seed %d %s: result contains dominated instance", seed, alg.name)
					}
				}
			}
		}

		// Kungs: exact Pareto front of the feasible instances.
		kres, err := newRunnerT(t, cfg).Kungs()
		if err != nil {
			t.Fatal(err)
		}
		naive := pareto.NaiveParetoSet(refPoints)
		if len(kres.Set) != len(naive) {
			t.Errorf("seed %d Kungs: |front| = %d, want %d", seed, len(kres.Set), len(naive))
		}
		if em := pareto.MinEps(kres.Points(), refPoints); em > 1e-9 {
			t.Errorf("seed %d Kungs: ε_m = %v, want 0", seed, em)
		}
	}
}

// TestPruningSavesVerifications: the guided algorithms must verify no more
// instances than the enumerator, and the pruned counters must be populated.
func TestPruningSavesVerifications(t *testing.T) {
	g := fixtureGraph(t, 4)
	cfg := fixtureConfig(t, g, 0.3, 6)
	enum, err := newRunnerT(t, cfg).EnumQGen()
	if err != nil {
		t.Fatal(err)
	}
	rf, err := newRunnerT(t, cfg).RfQGen()
	if err != nil {
		t.Fatal(err)
	}
	bi, err := newRunnerT(t, cfg).BiQGen()
	if err != nil {
		t.Fatal(err)
	}
	if rf.Stats.Verified > enum.Stats.Verified {
		t.Errorf("RfQGen verified %d > EnumQGen %d", rf.Stats.Verified, enum.Stats.Verified)
	}
	if bi.Stats.Verified > enum.Stats.Verified {
		t.Errorf("BiQGen verified %d > EnumQGen %d", bi.Stats.Verified, enum.Stats.Verified)
	}
	if rf.Stats.Feasible == 0 || bi.Stats.Feasible == 0 {
		t.Error("feasible counters empty")
	}
}

// TestIncrementalAblation: disabling incremental verification must not
// change RfQGen's result set.
func TestIncrementalAblation(t *testing.T) {
	g := fixtureGraph(t, 5)
	cfg := fixtureConfig(t, g, 0.3, 3)
	base, err := newRunnerT(t, cfg).RfQGen()
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := fixtureConfig(t, g, 0.3, 3)
	cfg2.DisableIncremental = true
	noInc, err := newRunnerT(t, cfg2).RfQGen()
	if err != nil {
		t.Fatal(err)
	}
	if !samePointSets(base.Points(), noInc.Points()) {
		t.Errorf("incremental changed results:\n%v\nvs\n%v", base.Points(), noInc.Points())
	}
}

// spawnFixture is a tiny graph whose lattice has children no node can
// satisfy: two directors with recommenders of experience 5 and 9, and a
// distant person with experience 50, so the ladder of x holds the level
// x >= 50 that nothing recommending a director reaches; and an edge
// variable whose label "mentors" occurs nowhere in the graph. Only the male
// group is constrained, so the parents of both children are feasible.
func spawnFixture(t *testing.T) *Config {
	t.Helper()
	g := graph.New()
	d1 := g.AddNode("Person", map[string]graph.Value{"title": graph.Str("Director"), "gender": graph.Str("female")})
	d2 := g.AddNode("Person", map[string]graph.Value{"title": graph.Str("Director"), "gender": graph.Str("male")})
	r1 := g.AddNode("Person", map[string]graph.Value{"yearsOfExp": graph.Int(5), "gender": graph.Str("male")})
	r2 := g.AddNode("Person", map[string]graph.Value{"yearsOfExp": graph.Int(9), "gender": graph.Str("female")})
	far := g.AddNode("Person", map[string]graph.Value{"yearsOfExp": graph.Int(50), "gender": graph.Str("male")})
	other := g.AddNode("Person", map[string]graph.Value{"gender": graph.Str("male")})
	for _, e := range [][2]graph.NodeID{{r1, d1}, {r2, d2}, {far, other}} {
		if err := g.AddEdge(e[0], e[1], "recommend"); err != nil {
			t.Fatal(err)
		}
	}
	g.Freeze()

	tpl, err := query.NewBuilder("t").
		Node("u_o", "Person").Literal("u_o", "title", graph.OpEQ, graph.Str("Director")).
		Node("u1", "Person").RangeVar("x", "u1", "yearsOfExp", graph.OpGE).
		Edge("u1", "u_o", "recommend").
		Node("u2", "Person").VarEdge("men", "u2", "u_o", "mentors").
		Output("u_o").Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := tpl.BindDomains(g, query.DomainOptions{}); err != nil {
		t.Fatal(err)
	}
	if x := tpl.Vars[tpl.Var("x")]; len(x.Ladder) != 3 || !x.Ladder[2].Equal(graph.Int(50)) {
		t.Fatalf("ladder = %v", x.Ladder)
	}
	set := groups.EqualOpportunity(groups.ByAttribute(g, "Person", "gender"), 1)
	for i := range set {
		if set[i].Name == "gender=female" {
			set[i].Want = 0
		}
	}
	return &Config{G: g, Template: tpl, Groups: set, Eps: 0.3}
}

// TestSpawnAgreesWithEnum: the walkers take every one-step refinement of a
// feasible instance as its children, so RfQGen, BiQGen and ParQGen archive
// the ε-boxes EnumQGen does — on the canonical fixture and on spawnFixture,
// whose children x >= 50 and men present are verified, not withheld, and
// read infeasible.
func TestSpawnAgreesWithEnum(t *testing.T) {
	walkers := []struct {
		name string
		run  func(*Runner) (*Result, error)
	}{
		{"rf", (*Runner).RfQGen},
		{"bi", (*Runner).BiQGen},
		{"par2", func(r *Runner) (*Result, error) { return r.ParQGen(2) }},
	}
	fixtures := []struct {
		name string
		cfg  func() *Config
	}{
		{"canonical", func() *Config { return fixtureConfig(t, fixtureGraph(t, 6), 0.3, 3) }},
		{"spawn", func() *Config { return spawnFixture(t) }},
	}
	for _, fx := range fixtures {
		want, err := newRunnerT(t, fx.cfg()).EnumQGen()
		if err != nil || len(want.Set) == 0 {
			t.Fatalf("%s: enum front %v, %v", fx.name, want, err)
		}
		for _, w := range walkers {
			cfg := fx.cfg()
			var mu sync.Mutex
			feasible := map[string]bool{}
			cfg.OnVerified = func(ev VerifyEvent) {
				mu.Lock()
				feasible[ev.Instance.Key()] = ev.Feasible
				mu.Unlock()
			}
			got, err := w.run(newRunnerT(t, cfg))
			if err != nil {
				t.Fatal(err)
			}
			if g, e := boxesOf(got), boxesOf(want); !slices.Equal(g, e) {
				t.Errorf("%s %s: boxes %v, enum %v", fx.name, w.name, g, e)
			}
			if fx.name != "spawn" {
				continue
			}
			tpl := cfg.Template
			top, mentor := query.Root(tpl), query.Root(tpl)
			top[tpl.Var("x")], mentor[tpl.Var("men")] = 2, 1
			for _, child := range []query.Instantiation{top, mentor} {
				if f, ok := feasible[child.Key()]; !ok || f {
					t.Errorf("%s: child %v verified %v, feasible %v; want verified and infeasible", w.name, child, ok, f)
				}
			}
		}
	}
}

// TestVerifyEventHook checks the anytime-trace hook fires once per
// verification with increasing sequence numbers.
func TestVerifyEventHook(t *testing.T) {
	g := fixtureGraph(t, 7)
	cfg := fixtureConfig(t, g, 0.3, 3)
	var events []VerifyEvent
	cfg.OnVerified = func(ev VerifyEvent) { events = append(events, ev) }
	res, err := newRunnerT(t, cfg).RfQGen()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != res.Stats.Verified {
		t.Errorf("hook fired %d times, verified %d", len(events), res.Stats.Verified)
	}
	for i, ev := range events {
		if ev.Seq != i+1 {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
		if ev.Instance == nil {
			t.Error("event without instance")
		}
	}
}

// TestCoverageMonotonicity verifies Lemma 2 (2) empirically: along every
// verified refinement edge, diversity does not increase and, between
// feasible endpoints, coverage does not decrease.
func TestCoverageMonotonicity(t *testing.T) {
	g := fixtureGraph(t, 8)
	cfg := fixtureConfig(t, g, 0.3, 3)
	r := newRunnerT(t, cfg)
	all, err := r.AllFeasible()
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]*Verified{}
	for _, v := range all {
		byKey[v.Q.Key()] = v
	}
	for _, v := range all {
		for _, childIn := range query.RefineSteps(cfg.Template, v.Q.I) {
			c, ok := byKey[childIn.Key()]
			if !ok {
				continue // infeasible child
			}
			if c.Point.Div > v.Point.Div+1e-9 {
				t.Errorf("diversity grew on refinement: %v -> %v", v.Point.Div, c.Point.Div)
			}
			if c.Point.Cov < v.Point.Cov-1e-9 {
				t.Errorf("coverage shrank between feasible instances: %v -> %v", v.Point.Cov, c.Point.Cov)
			}
		}
	}
}

func TestCBM(t *testing.T) {
	g := fixtureGraph(t, 9)
	cfg := fixtureConfig(t, g, 0.3, 3)
	res, err := newRunnerT(t, cfg).CBM(CBMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set) == 0 {
		t.Fatal("CBM returned nothing")
	}
	// Anchors must include the max-diversity and max-coverage instances.
	ref, err := newRunnerT(t, cfg).AllFeasible()
	if err != nil {
		t.Fatal(err)
	}
	var maxDiv, maxCov float64
	for _, v := range ref {
		if v.Point.Div > maxDiv {
			maxDiv = v.Point.Div
		}
		if v.Point.Cov > maxCov {
			maxCov = v.Point.Cov
		}
	}
	var gotDiv, gotCov float64
	for _, v := range res.Set {
		if v.Point.Div > gotDiv {
			gotDiv = v.Point.Div
		}
		if v.Point.Cov > gotCov {
			gotCov = v.Point.Cov
		}
	}
	if gotDiv < maxDiv-1e-9 || gotCov < maxCov-1e-9 {
		t.Errorf("CBM anchors miss extremes: div %v/%v cov %v/%v", gotDiv, maxDiv, gotCov, maxCov)
	}
	// MaxAnchors bounds the result.
	res2, err := newRunnerT(t, cfg).CBM(CBMOptions{MaxAnchors: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Set) > 2 {
		t.Errorf("MaxAnchors=2 returned %d", len(res2.Set))
	}
}

// TestEmptyFeasibleSpace: unsatisfiable coverage constraints produce empty
// results without error.
func TestEmptyFeasibleSpace(t *testing.T) {
	g := fixtureGraph(t, 10)
	cfg := fixtureConfig(t, g, 0.3, 3)
	// Demand more female directors than exist anywhere.
	for i := range cfg.Groups {
		cfg.Groups[i].Want = cfg.Groups[i].Size()
	}
	for _, alg := range []func(*Runner) (*Result, error){
		(*Runner).EnumQGen, (*Runner).RfQGen, (*Runner).BiQGen, (*Runner).Kungs,
	} {
		res, err := alg(newRunnerT(t, cfg))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Set) != 0 {
			t.Errorf("expected empty set, got %d", len(res.Set))
		}
	}
}

func samePointSets(a, b []pareto.Point) bool {
	if len(a) != len(b) {
		return false
	}
	used := make([]bool, len(b))
	for _, p := range a {
		found := false
		for j, q := range b {
			if !used[j] && p == q {
				used[j] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// TestMeasureIntegration sanity-checks the runner's measure wiring: the
// root instance of a selective template has the largest diversity.
func TestMeasureIntegration(t *testing.T) {
	g := fixtureGraph(t, 11)
	cfg := fixtureConfig(t, g, 0.3, 3)
	r := newRunnerT(t, cfg)
	all, err := r.AllFeasible()
	if err != nil {
		t.Fatal(err)
	}
	rootKey := query.Root(cfg.Template).Key()
	var root *Verified
	maxDiv := 0.0
	for _, v := range all {
		if v.Q.Key() == rootKey {
			root = v
		}
		if v.Point.Div > maxDiv {
			maxDiv = v.Point.Div
		}
	}
	if root == nil {
		t.Fatal("root not feasible in this fixture")
	}
	if root.Point.Div < maxDiv-1e-9 {
		t.Errorf("root diversity %v below max %v", root.Point.Div, maxDiv)
	}
	if root.Point.Div > r.DivMax() {
		t.Errorf("diversity %v exceeds bound %v", root.Point.Div, r.DivMax())
	}
	if r.CovMax() != measure.CoverageMax(cfg.Groups) {
		t.Error("CovMax mismatch")
	}
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

// noInherit returns base with Config.DisableIncremental set — every plan
// from its label populations, no within, no matcher domains handed down the
// lattice: the configuration the core differential suite compares against
// the sequential reference, which has inheritance on.
func noInherit(base *Config) *Config {
	cfg := *base
	cfg.DisableIncremental = true
	return &cfg
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
