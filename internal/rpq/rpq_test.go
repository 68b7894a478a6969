package rpq

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"fairsqg/internal/core"
	"fairsqg/internal/graph"
	"fairsqg/internal/groups"
	"fairsqg/internal/match"
	"fairsqg/internal/measure"
	"fairsqg/internal/pareto"
	"fairsqg/internal/query"
)

func TestParse(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"cites", "cites"},
		{"cites/authored", "cites/authored"},
		{"cites|authored", "cites|authored"},
		{"cites*", "cites*"},
		{"cites+", "cites+"},
		{"cites?", "cites?"},
		{"(cites|refs)/authored", "(cites|refs)/authored"},
		{"cites/(refs|links)*", "cites/(refs|links)*"},
		{"a/b|c/d", "a/b|c/d"},
		{" a / b ", "a/b"},
	}
	for _, c := range cases {
		e, err := Parse(c.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		if e.String() != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.src, e.String(), c.want)
		}
		// Round trip.
		e2, err := Parse(e.String())
		if err != nil || e2.String() != e.String() {
			t.Errorf("round trip of %q failed: %v", c.src, err)
		}
	}
	bad := []string{"", "(", "a|", "a/", "*", "a)b", "a$(b)"}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestTopBranches(t *testing.T) {
	e := MustParse("a|b/c|d*")
	if got := len(TopBranches(e)); got != 3 {
		t.Errorf("branches = %d", got)
	}
	if got := len(TopBranches(MustParse("a/b"))); got != 1 {
		t.Errorf("single branch = %d", got)
	}
}

// pathGraph builds: s0 -a-> m1 -a-> m2 -a-> m3, s0 -b-> x1, x1 -a-> m2.
func pathGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New()
	for i := 0; i < 6; i++ {
		g.AddNode("N", map[string]graph.Value{"id": graph.Int(int64(i))})
	}
	edges := []struct {
		from, to int
		label    string
	}{
		{0, 1, "a"}, {1, 2, "a"}, {2, 3, "a"},
		{0, 4, "b"}, {4, 2, "a"},
	}
	for _, e := range edges {
		if err := g.AddEdge(graph.NodeID(e.from), graph.NodeID(e.to), e.label); err != nil {
			t.Fatal(err)
		}
	}
	g.Freeze()
	return g
}

func evalIDs(t *testing.T, g *graph.Graph, expr string, sources []graph.NodeID, hops int) []graph.NodeID {
	t.Helper()
	nfa := Compile(MustParse(expr), g)
	return nfa.Eval(context.Background(), g, sources, hops)
}

func TestNFAEval(t *testing.T) {
	g := pathGraph(t)
	s := []graph.NodeID{0}
	cases := []struct {
		expr string
		hops int
		want []graph.NodeID
	}{
		{"a", 10, []graph.NodeID{1}},
		{"a/a", 10, []graph.NodeID{2}},
		{"a*", 10, []graph.NodeID{0, 1, 2, 3}},
		{"a+", 10, []graph.NodeID{1, 2, 3}},
		{"a?", 10, []graph.NodeID{0, 1}},
		{"b/a", 10, []graph.NodeID{2}},
		{"a|b", 10, []graph.NodeID{1, 4}},
		{"(a|b)/a", 10, []graph.NodeID{2}},
		{"(a|b)*", 10, []graph.NodeID{0, 1, 2, 3, 4}},
		// Hop bounds truncate.
		{"a*", 1, []graph.NodeID{0, 1}},
		{"a*", 2, []graph.NodeID{0, 1, 2}},
		{"a/a", 1, nil},
		// Unknown label: dead.
		{"z", 10, nil},
		{"z|a", 10, []graph.NodeID{1}},
	}
	for _, c := range cases {
		got := evalIDs(t, g, c.expr, s, c.hops)
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("eval(%q, hops=%d) = %v, want %v", c.expr, c.hops, got, c.want)
		}
	}
}

func TestNFAEmptyWord(t *testing.T) {
	g := pathGraph(t)
	if !Compile(MustParse("a*"), g).AcceptsEmpty() {
		t.Error("a* should accept the empty word")
	}
	if Compile(MustParse("a"), g).AcceptsEmpty() {
		t.Error("a should not accept the empty word")
	}
}

// bruteForcePaths enumerates all bounded paths and checks word membership
// via the NFA run on the word — the oracle for Eval.
func bruteForcePaths(g *graph.Graph, expr Expr, sources []graph.NodeID, maxHops int) []graph.NodeID {
	nfa := Compile(expr, g)
	found := map[graph.NodeID]bool{}
	var walk func(v graph.NodeID, states map[int]bool, depth int)
	walk = func(v graph.NodeID, states map[int]bool, depth int) {
		for st := range states {
			if nfa.accept[st] {
				found[v] = true
			}
		}
		if depth == maxHops {
			return
		}
		for _, e := range g.Out(v) {
			next := map[int]bool{}
			for st := range states {
				for _, tr := range nfa.trans[st] {
					if tr.label == e.Label {
						next[tr.next] = true
					}
				}
			}
			if len(next) > 0 {
				walk(e.To, next, depth+1)
			}
		}
	}
	for _, s := range sources {
		walk(s, map[int]bool{nfa.start: true}, 0)
	}
	var out []graph.NodeID
	for v := range found {
		out = append(out, v)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func TestNFAEvalAgainstBruteForce(t *testing.T) {
	const seed = 4 // fixed and logged so a failing trial reproduces
	rng := rand.New(rand.NewSource(seed))
	exprs := []string{"a", "a/b", "a|b", "a*", "(a|b)/a", "a/(a|b)*", "a+|b"}
	for trial := 0; trial < 50; trial++ {
		g := graph.New()
		n := 6 + rng.Intn(4)
		for i := 0; i < n; i++ {
			g.AddNode("N", nil)
		}
		for e := 0; e < n*2; e++ {
			from, to := rng.Intn(n), rng.Intn(n)
			if from != to {
				label := "a"
				if rng.Intn(2) == 0 {
					label = "b"
				}
				_ = g.AddEdge(graph.NodeID(from), graph.NodeID(to), label)
			}
		}
		g.Freeze()
		sources := []graph.NodeID{graph.NodeID(rng.Intn(n))}
		for _, src := range exprs {
			expr := MustParse(src)
			hops := 1 + rng.Intn(4)
			got := Compile(expr, g).Eval(context.Background(), g, sources, hops)
			want := bruteForcePaths(g, expr, sources, hops)
			if len(got) == 0 {
				got = nil
			}
			if len(want) == 0 {
				want = nil
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d trial %d expr %q hops %d: got %v want %v", seed, trial, src, hops, got, want)
			}
		}
	}
}

// citeGraph builds a small citation graph for generation tests.
func citeGraph(t *testing.T) (*graph.Graph, groups.Set) {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	g := graph.New()
	topics := []string{"ml", "db"}
	n := 120
	for i := 0; i < n; i++ {
		g.AddNode("Paper", map[string]graph.Value{
			"topic": graph.Str(topics[rng.Intn(2)]),
			"year":  graph.Int(int64(2000 + i/6)),
		})
	}
	for i := 1; i < n; i++ {
		refs := 1 + rng.Intn(3)
		for r := 0; r < refs; r++ {
			j := rng.Intn(i)
			_ = g.AddEdge(graph.NodeID(i), graph.NodeID(j), "cites")
		}
	}
	g.Freeze()
	set := groups.EqualOpportunity(groups.ByAttribute(g, "Paper", "topic"), 3)
	return g, set
}

// citeConfig lowers the generation tests' template over the cite fixture:
// one source predicate, two alternation branches, three hop bounds — a
// lattice of (ladder+1)·2²·3 instances.
func citeConfig(t *testing.T, maxValues int) (*Template, *core.Config) {
	t.Helper()
	g, set := citeGraph(t)
	tpl, err := NewTemplate("lit", "Paper", MustParse("cites|cites/cites"), []int{6, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	tpl.AddVar("y", "year", graph.OpGE)
	if err := tpl.BindDomains(g, maxValues); err != nil {
		t.Fatal(err)
	}
	cfg, err := tpl.Config(g)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Groups, cfg.Eps, cfg.DistanceAttrs = set, 0.2, []string{"topic", "year"}
	return tpl, cfg
}

func TestTemplateBasics(t *testing.T) {
	g, _ := citeGraph(t)
	tpl, err := NewTemplate("lit", "Paper", MustParse("cites|cites/cites"), []int{4, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	tpl.AddVar("y", "year", graph.OpGE)
	if err := tpl.BindDomains(g, 5); err != nil {
		t.Fatal(err)
	}
	cfg, err := tpl.Config(g)
	if err != nil {
		t.Fatal(err)
	}
	carrier := cfg.Template
	// (5+1 var options) × 2^2 branches × 3 bounds = 72.
	if got := carrier.InstanceSpaceSize(); got != 72 {
		t.Errorf("space = %d", got)
	}
	// The carrier's root is the most relaxed RPQ: no predicate, both
	// branches, the widest bound.
	root := query.Root(carrier)
	if len(tpl.Sources(g, root)) != 120 || tpl.BranchMask(root) != 3 || tpl.Bound(root) != 4 {
		t.Errorf("root decodes to %s", tpl.Describe(root))
	}
	// Refinement steps from the root: var wildcard→0, two branch drops,
	// bound 4→2.
	kids := query.RefineSteps(carrier, root)
	if len(kids) != 4 {
		t.Fatalf("root children = %d", len(kids))
	}
	if tpl.BranchMask(kids[1]) != 2 || tpl.BranchMask(kids[2]) != 1 || tpl.Bound(kids[3]) != 2 {
		t.Errorf("children decode to %s, %s, %s", tpl.Describe(kids[1]), tpl.Describe(kids[2]), tpl.Describe(kids[3]))
	}
	// The bottom is the most refined: last ladder value, no branch, one hop.
	bottom := query.Bottom(carrier)
	if tpl.BranchMask(bottom) != 0 || tpl.Bound(bottom) != 1 || bottom[0] != 4 {
		t.Errorf("bottom decodes to %s", tpl.Describe(bottom))
	}
	// Describe mentions the path and bound.
	d := tpl.Describe(root)
	if !strings.Contains(d, "hops<=4") || !strings.Contains(d, "cites") {
		t.Errorf("Describe = %q", d)
	}
	// All branches disabled → empty language.
	if tpl.EnabledExpr(bottom) != nil {
		t.Error("disabled branches should yield nil expr")
	}
	if !strings.Contains(tpl.Describe(bottom), "∅") {
		t.Error("Describe should mark the empty language")
	}
	// A single bound needs no hop variable.
	one, err := NewTemplate("one", "Paper", MustParse("cites"), []int{2})
	if err != nil {
		t.Fatal(err)
	}
	oneCfg, err := one.Config(g)
	if err != nil {
		t.Fatal(err)
	}
	if in := query.Root(oneCfg.Template); len(in) != 1 || one.Bound(in) != 2 {
		t.Errorf("single-bound root %v, bound %d", in, one.Bound(in))
	}
	// A variable named like a pseudo-variable is refused, not shadowed.
	one.AddVar("hops", "year", graph.OpGE).AddVar("drop0", "year", graph.OpGE)
	if _, err := one.Config(g); err == nil {
		t.Error("variable named drop0 accepted")
	}
}

// TestBindDomainsCap: ladders come from query's binder — a cap of 1 keeps one
// value, the median (it used to divide by zero); LE ladders run downwards.
func TestBindDomainsCap(t *testing.T) {
	g, _ := citeGraph(t)
	tpl, err := NewTemplate("lit", "Paper", MustParse("cites"), []int{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	tpl.AddVar("from", "year", graph.OpGE).AddVar("to", "year", graph.OpLE)
	if err := tpl.BindDomains(g, 1); err != nil {
		t.Fatal(err)
	}
	for _, v := range tpl.Vars {
		if len(v.Ladder) != 1 || !v.Ladder[0].Equal(graph.Int(2009)) { // years 2000..2019
			t.Errorf("%s ladder = %v, want [2009]", v.Name, v.Ladder)
		}
	}
	if err := tpl.BindDomains(g, 3); err != nil {
		t.Fatal(err)
	}
	want := []graph.Value{graph.Int(2000), graph.Int(2010), graph.Int(2019)}
	if got := tpl.Vars[0].Ladder; !reflect.DeepEqual(got, want) {
		t.Errorf("from ladder = %v", got)
	}
	slices.Reverse(want)
	if got := tpl.Vars[1].Ladder; !reflect.DeepEqual(got, want) {
		t.Errorf("to ladder = %v", got)
	}
	tpl.AddVar("x", "nosuch", graph.OpGE)
	if err := tpl.BindDomains(g, 3); err == nil {
		t.Error("empty active domain accepted")
	}
}

func TestTemplateErrors(t *testing.T) {
	if _, err := NewTemplate("x", "", MustParse("a"), []int{2}); err == nil {
		t.Error("empty source label accepted")
	}
	if _, err := NewTemplate("x", "P", MustParse("a"), nil); err == nil {
		t.Error("no bounds accepted")
	}
	if _, err := NewTemplate("x", "P", MustParse("a"), []int{0}); err == nil {
		t.Error("zero bound accepted")
	}
	if _, err := NewTemplate("x", "P", MustParse("a"), []int{2, 3}); err == nil {
		t.Error("ascending bounds accepted")
	}
}

// bruteAnswer derives an instance's answer without the template's decoding
// or the evaluator: the carrier layout [y, drop0, drop1, hops] is read by
// hand and the paths are walked exhaustively.
func bruteAnswer(g *graph.Graph, tpl *Template, in query.Instantiation) []graph.NodeID {
	var sources []graph.NodeID
	for _, v := range g.NodesByLabel("Paper") {
		if in[0] == query.Wildcard || g.Attr(v, "year").Compare(tpl.Vars[0].Ladder[in[0]]) >= 0 {
			sources = append(sources, v)
		}
	}
	var enabled []Expr
	for bi, br := range []string{"cites", "cites/cites"} {
		if in[1+bi] == query.Wildcard {
			enabled = append(enabled, MustParse(br))
		}
	}
	if len(enabled) == 0 {
		return nil
	}
	return bruteForcePaths(g, Alt{Branches: enabled}, sources, []int{6, 3, 1}[in[3]+1])
}

// TestGenerateMatchesEnumerate: on the generation stack an RPQ template gets
// what a subgraph template gets. Every record of AllFeasible is re-derived
// from exhaustive path walks and the from-scratch measures, and every
// algorithm returns an ε-Pareto set of that reference.
func TestGenerateMatchesEnumerate(t *testing.T) {
	tpl, cfg := citeConfig(t, 6)
	g := cfg.G
	r, err := core.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := r.AllFeasible()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]*core.Verified{}
	for _, v := range ref {
		got[v.Q.Key()] = v
	}
	div := &measure.Diversity{
		Lambda: 0.5, Relevance: measure.ConstantRelevance(1),
		Distance: measure.TupleDistance(g, cfg.DistanceAttrs), LabelPopulation: g.NumNodes(),
	}
	space, feasible := 0, 0
	core.EnumerateInstantiations(cfg.Template, func(in query.Instantiation) bool {
		space++
		want := bruteAnswer(g, tpl, in)
		v := got[in.Key()]
		if !measure.Feasible(cfg.Groups, want) {
			if v != nil {
				t.Errorf("%s: infeasible by brute force, feasible on the stack", tpl.Describe(in))
			}
			return true
		}
		feasible++
		if v == nil {
			t.Errorf("%s: feasible by brute force, missing from AllFeasible", tpl.Describe(in))
			return true
		}
		if !slices.Equal(v.Matches, want) {
			t.Errorf("%s: targets %v, brute force %v", tpl.Describe(in), v.Matches, want)
		}
		wantPt := pareto.Point{Div: div.Eval(want), Cov: measure.Coverage(cfg.Groups, want)}
		if math.Abs(v.Point.Div-wantPt.Div) > 1e-9*wantPt.Div || v.Point.Cov != wantPt.Cov {
			t.Errorf("%s: point %+v, from scratch %+v", tpl.Describe(in), v.Point, wantPt)
		}
		return true
	})
	if space != 84 || feasible != 56 || len(ref) != 56 {
		t.Fatalf("space %d, feasible %d by brute force and %d on the stack; the fixture has 56 of 84", space, feasible, len(ref))
	}
	refPoints := make([]pareto.Point, len(ref))
	for i, v := range ref {
		refPoints[i] = v.Point
	}
	check := func(name string, points []pareto.Point, verified int) {
		t.Helper()
		if len(points) == 0 {
			t.Fatalf("%s: empty set", name)
		}
		if em := pareto.MinEps(points, refPoints); em > cfg.Eps+1e-9 {
			t.Errorf("%s: ε_m = %v > ε", name, em)
		}
		if verified > space {
			t.Errorf("%s verified %d > space %d", name, verified, space)
		}
	}
	for _, name := range []string{"enum", "rf", "bi", "par"} {
		res, err := r.Run(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		check(name, res.Points(), res.Stats.Verified)
		if name == "bi" && res.Stats.Verified >= space {
			t.Errorf("bi verified %d: sandwich and infeasibility pruning cut nothing", res.Stats.Verified)
		}
	}
	// Slabs, as a cluster would run them: the union of the slab archives.
	var union []pareto.Point
	plan := core.PlanSlabs(cfg.Template)
	for _, level := range plan.Levels {
		res, err := r.RunSlab(plan.SplitVar, level)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range res.Entries {
			union = append(union, e.Point())
		}
	}
	check("slabs", union, 0)
}

// TestRPQMonotonicity: answers shrink along every refinement edge of the
// carrier's lattice — Lemma 2, which is all the algorithms ask of an
// evaluator.
func TestRPQMonotonicity(t *testing.T) {
	_, cfg := citeConfig(t, 4)
	ctx := context.Background()
	seen := map[string]bool{}
	var walk func(in query.Instantiation, parent []graph.NodeID)
	walk = func(in query.Instantiation, parent []graph.NodeID) {
		targets := cfg.Evaluator.Answer(ctx, query.MustInstance(cfg.Template, in))
		if !slices.IsSorted(targets) {
			t.Fatalf("targets not ascending at %v", in)
		}
		for _, tg := range targets {
			if _, ok := slices.BinarySearch(parent, tg); parent != nil && !ok {
				t.Fatalf("refinement introduced target %d at %v", tg, in)
			}
		}
		if seen[in.Key()] {
			return // the edge is checked; the subtree already was
		}
		seen[in.Key()] = true
		if targets == nil {
			targets = []graph.NodeID{}
		}
		for _, child := range query.RefineSteps(cfg.Template, in) {
			walk(child, targets)
		}
	}
	walk(query.Root(cfg.Template), nil)
	if len(seen) != cfg.Template.InstanceSpaceSize() {
		t.Errorf("walk reached %d of %d instances", len(seen), cfg.Template.InstanceSpaceSize())
	}
}

// TestCancelledRunReturnsContextError: the run's context stops an RPQ
// generation between verifications and inside an evaluation.
func TestCancelledRunReturnsContextError(t *testing.T) {
	_, cfg := citeConfig(t, 6)
	for _, name := range core.AlgorithmNames() {
		ctx, cancel := context.WithCancel(context.Background())
		cfg.Ctx = ctx
		cfg.OnVerified = func(ev core.VerifyEvent) {
			if ev.Seq == 5 {
				cancel()
			}
		}
		r, err := core.NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res, err := r.Run(name, 2); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: result %v, error %v; want context.Canceled", name, res, err)
		}
		if n := r.Stats().Verified; n < 5 || n > 10 { // par: each worker counts its own five
			t.Errorf("%s: %d verifications counted around a cancel at the fifth", name, n)
		}
		cancel()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := cfg.G
	if got := Compile(MustParse("cites*"), g).Eval(ctx, g, g.NodesByLabel("Paper"), 6); got != nil {
		t.Errorf("cancelled Eval returned %d targets", len(got))
	}
}

// TestEvaluatorExcludesMatcherInputs: a run has one source of answers.
func TestEvaluatorExcludesMatcherInputs(t *testing.T) {
	_, cfg := citeConfig(t, 6)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	withEngine := *cfg
	withEngine.Engine = match.NewEngine(cfg.G, match.EngineOptions{})
	withExtra := *cfg
	withExtra.ExtraOutputs = []string{"source"}
	for name, c := range map[string]*core.Config{"Engine": &withEngine, "ExtraOutputs": &withExtra} {
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "evaluator") {
			t.Errorf("Evaluator with %s: %v", name, err)
		}
	}
	online := core.OnlineOptions{K: 3, Mutations: &core.ChanMutations{}}
	r, err := core.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.OnlineQGen(core.NewRandomStream(cfg.Template, 5, 1), online); err == nil {
		t.Error("OnlineQGen followed mutations with an evaluator")
	}
	online.Mutations = nil
	if res, err := r.OnlineQGen(core.NewRandomStream(cfg.Template, 40, 1), online); err != nil || len(res.Set) == 0 {
		t.Errorf("OnlineQGen over an RPQ stream: %v, %v", res, err)
	}
}
