package match_test

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"fairsqg/internal/core"
	"fairsqg/internal/graph"
	"fairsqg/internal/match"
	"fairsqg/internal/query"
)

// The checker on fixed fixtures: the hand-built and seeded graphs the
// matcher's tests share run through checkMatcher and checkEval as cases of
// their own, in the heap backing, without a budget.

// fixtureCase wraps g and tpl as a case of the checker.
func fixtureCase(seed int64, g *graph.Graph, tpl *query.Template, mode match.Mode, shape string) *equivCase {
	return &equivCase{
		seed: seed, rng: rand.New(rand.NewSource(seed)), g: g, heap: g, nodes: g.NumNodes(), tpl: tpl,
		shape: shape, backing: "heap", inherit: "default", settings: match.Settings{Mode: mode}, procs: runtime.GOMAXPROCS(0),
	}
}

// checkFixture runs every instantiation of tpl over g through the matcher
// level in the given modes, with outputOracle as given, and through one
// engine per mode shared by all of them, so its candidate cache serves
// mixed keys: that engine's answer at the output must be the sequential
// matcher's, which checkMatcher compares with the oracle.
func checkFixture(t *testing.T, seed int64, g *graph.Graph, tpl *query.Template, shape string, modes []match.Mode, outputOracle bool) equivReach {
	t.Helper()
	reach := equivReach{}
	for _, mode := range modes {
		c := fixtureCase(seed, g, tpl, mode, shape)
		c.outputOracle = outputOracle
		e := match.NewEngine(g, match.EngineOptions{Settings: c.settings})
		for _, in := range match.AllInstantiations(tpl) {
			q := query.MustInstance(tpl, in)
			checkMatcher(t, c, q, reach)
			m := match.New(g)
			m.Mode = mode
			want := m.EvalOutput(q)
			if got, _, err := e.ParEvalNodeFiltered(context.Background(), q, q.T.Output, nil, nil); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("%v: %s: shared engine %v (err %v), sequential %v", c, q, got, err, want)
			}
		}
	}
	return reach
}

var bothModes = []match.Mode{match.Isomorphism, match.Homomorphism}

// TestDifferentialTalentFixture runs every instantiation of the canonical
// talent fixture through the checker in both matching modes. Its e1=0
// instances collapse to the output node alone, so this is also where the
// checker meets inactive nodes and single-node plans on a hand-built graph.
func TestDifferentialTalentFixture(t *testing.T) {
	reach := checkFixture(t, match.DifferentialSeed, match.TalentGraph(t), match.TalentTpl(t), "talent", bothModes, false)
	for _, shape := range []string{"inactive node", "vetoed", "single-node plan", "within"} {
		if reach[shape] == 0 {
			t.Errorf("the talent fixture reached no %q evaluation: %v", shape, reach)
		}
	}
}

// TestDifferentialRandomGraph covers the mid-size random fixture: every
// instantiation of the 4-variable random template, against the oracle at
// the output node.
func TestDifferentialRandomGraph(t *testing.T) {
	g := match.RandomGraph(t, 300, 900, match.DifferentialSeed)
	checkFixture(t, match.DifferentialSeed, g, match.RandomTemplate(t, g), "random", bothModes[:1], true)
}

// multiNullGraph is a deliberately hostile fixture: a multigraph (parallel
// edges with identical endpoints and label must dedup, not double-count) in
// which attribute values include Null (absent) and NaN — the bottom of the
// value total order — on both template-constrained attributes.
//
//	p0 Person exp 10      p0 -rec-> p3 (x2), p0 -rec-> p1, p0 -works-> o4 (x2)
//	p1 Person exp NaN     p1 -rec-> p3, p1 -works-> o4
//	p2 Person (no exp)    p2 -rec-> p3 (x3), p2 -works-> o5
//	p3 Person exp 3       p3 -rec-> p0, p3 -works-> o5
//	o4 Org size 100
//	o5 Org (no size)
func multiNullGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g := graph.New()
	p0 := g.AddNode("Person", map[string]graph.Value{"exp": graph.Int(10)})
	p1 := g.AddNode("Person", map[string]graph.Value{"exp": graph.Num(math.NaN())})
	p2 := g.AddNode("Person", map[string]graph.Value{})
	p3 := g.AddNode("Person", map[string]graph.Value{"exp": graph.Int(3)})
	o4 := g.AddNode("Org", map[string]graph.Value{"size": graph.Int(100)})
	o5 := g.AddNode("Org", map[string]graph.Value{})
	for _, e := range []struct {
		from, to graph.NodeID
		label    string
	}{
		{p0, p3, "rec"}, {p0, p3, "rec"}, {p0, p1, "rec"},
		{p1, p3, "rec"},
		{p2, p3, "rec"}, {p2, p3, "rec"}, {p2, p3, "rec"},
		{p3, p0, "rec"},
		{p0, o4, "works"}, {p0, o4, "works"},
		{p1, o4, "works"},
		{p2, o5, "works"}, {p3, o5, "works"},
	} {
		if err := g.AddEdge(e.from, e.to, e.label); err != nil {
			t.Fatal(err)
		}
	}
	g.Freeze()
	return g
}

// TestDifferentialMultigraphNullNaN runs the hostile fixture through the
// checker: parallel edges, Null and NaN attribute values must not change
// anyone's answer. The template ranges over both hostile attributes; the
// edge variable turns the recommender off entirely, exercising projection.
func TestDifferentialMultigraphNullNaN(t *testing.T) {
	g := multiNullGraph(t)
	tpl, err := query.NewBuilder("multinull").
		Node("u_o", "Person").
		Node("u1", "Person").RangeVar("x", "u1", "exp", graph.OpGE).
		Node("org", "Org").RangeVar("y", "org", "size", graph.OpLE).
		VarEdge("e1", "u1", "u_o", "rec").
		Edge("u1", "org", "works").
		Output("u_o").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := tpl.BindDomains(g, query.DomainOptions{MaxValues: 3}); err != nil {
		t.Fatal(err)
	}
	checkFixture(t, match.DifferentialSeed, g, tpl, "multinull", bothModes, false)
}

// TestDifferentialIncremental checks within-restricted evaluation (what
// incVerify runs) along random refinement chains: at each step the output
// node restricted to its parent's answer goes through checkEval, and an
// engine shared by the chains answers it as the sequential matcher does.
func TestDifferentialIncremental(t *testing.T) {
	g := match.RandomGraph(t, 300, 900, match.DifferentialSeed+1)
	tpl := match.RandomTemplate(t, g)
	c := fixtureCase(match.DifferentialSeed+2, g, tpl, match.Isomorphism, "random")
	m := match.New(g)
	e := match.NewEngine(g, match.EngineOptions{})
	reach := equivReach{}
	for trial := 0; trial < 20; trial++ {
		in := query.Root(tpl)
		parent := m.EvalOutput(query.MustInstance(tpl, in))
		for step := 0; step < 5; step++ {
			kids := query.RefineSteps(tpl, in)
			if len(kids) == 0 {
				break
			}
			in = kids[c.rng.Intn(len(kids))]
			q := query.MustInstance(tpl, in)
			checkEval(t, c, q, q.T.Output, match.BruteForceMatches(g, q, c.settings.Mode, q.T.Output), parent, 0, reach)
			want := m.EvalOutputWithin(q, parent)
			if got, _, err := e.ParEvalNodeFiltered(context.Background(), q, q.T.Output, parent, nil); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("%v: trial %d step %d: %s: shared engine %v (err %v), sequential %v", c, trial, step, q, got, err, want)
			}
			parent = want
		}
	}
	if reach["within"] == 0 {
		t.Error("the chains ran no within-restricted evaluation")
	}
}

// TestSignaturePruneSoundness is the property behind structurePrune: any
// candidate the degree/signature check rejects must fail every brute-force
// embedding at that plan node. The sweep runs the generator's graphs (self-
// loops and parallel edges among them) in both modes until a quota of
// actually-pruned candidates has been checked against the oracle.
func TestSignaturePruneSoundness(t *testing.T) {
	checked := 0
	for seed := int64(1); seed <= equivCases && checked < 200; seed++ {
		c := newEquivCase(t, seed)
		random := core.NewRandomStream(c.tpl, 4, seed)
		for q := query.MustInstance(c.tpl, query.Root(c.tpl)); q != nil; q = random.Next() {
			for _, mode := range bothModes {
				for ni, pruned := range match.PrunedCandidates(c.g, q, mode) {
					oracle := match.BruteForceMatches(c.g, q, mode, ni)
					for _, v := range pruned {
						if slices.Contains(oracle, v) {
							t.Fatalf("%v: mode %d: %s: node %d candidate %d pruned but embeds", c, mode, q, ni, v)
						}
						checked++
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("the sweep never exercised the pruning path; generator changed?")
	}
}

// rebuildLive reconstructs a mutated graph's live content from scratch
// through the ordinary builder + Freeze path, with the label dictionary
// pre-interned in the mutated graph's order so LabelIDs (and therefore
// signature bits and bucket identities) coincide. Returns the rebuilt
// graph and the monotone live-node remap (mutated NodeID → rebuilt
// NodeID).
func rebuildLive(t testing.TB, g *graph.Graph) (*graph.Graph, map[graph.NodeID]graph.NodeID) {
	t.Helper()
	nb := graph.New()
	for _, l := range g.DictLabels() {
		nb.Intern(l)
	}
	remap := make(map[graph.NodeID]graph.NodeID, g.NumLive())
	for v := 0; v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		if g.Alive(id) {
			remap[id] = nb.AddNode(g.Label(id), g.Attrs(id))
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		for _, e := range g.Out(id) {
			if err := nb.AddEdge(remap[id], remap[e.To], g.LabelOf(e.Label)); err != nil {
				t.Fatal(err)
			}
		}
	}
	nb.Freeze()
	return nb, remap
}

// mutationRounds drives the random fixture through a few batches that
// reshape candidate sets: attribute rewrites crossing the templates' range
// bounds, node churn in both labels, and edge churn on both edge labels.
func mutationRounds(t testing.TB, l *graph.Live, rng *rand.Rand, rounds int) {
	t.Helper()
	for round := 0; round < rounds; round++ {
		g := l.Graph()
		var batch []graph.Mutation
		people := g.NodesByLabel("Person")
		orgs := g.NodesByLabel("Org")
		for i := 0; i < 4 && len(people) > 0; i++ {
			v := people[rng.Intn(len(people))]
			batch = append(batch, graph.Mutation{
				Op: graph.MutSetAttr, Node: v, Attr: "yearsOfExp", Value: graph.Int(int64(rng.Intn(20))),
			})
		}
		if len(orgs) > 0 {
			batch = append(batch, graph.Mutation{
				Op: graph.MutSetAttr, Node: orgs[rng.Intn(len(orgs))], Attr: "employees",
				Value: graph.Int(int64(10 + rng.Intn(5000))),
			})
		}
		batch = append(batch, graph.Mutation{
			Op: graph.MutAddNode, Label: "Person",
			Attrs: []graph.AttrPair{{Name: "yearsOfExp", Value: graph.Int(int64(rng.Intn(20)))}},
		})
		if len(people) > 1 {
			from, to := people[rng.Intn(len(people))], people[rng.Intn(len(people))]
			if from != to {
				batch = append(batch, graph.Mutation{Op: graph.MutAddEdge, From: from, To: to, Label: "recommend"})
			}
		}
		if len(people) > 0 && len(orgs) > 0 {
			batch = append(batch, graph.Mutation{
				Op: graph.MutAddEdge, From: people[rng.Intn(len(people))],
				To: orgs[rng.Intn(len(orgs))], Label: "worksAt",
			})
		}
		if round%2 == 1 && len(people) > 0 {
			batch = append(batch, graph.Mutation{Op: graph.MutRemoveNode, Node: people[rng.Intn(len(people))]})
		}
		if _, err := l.Apply(batch); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if round == rounds/2 {
			l.Compact()
		}
	}
}

// TestMutatedGraphDifferential is the matcher-level equivalence for the
// mutation layer on a rebuild with other NodeIDs: after a series of batches
// (with a compaction in the middle), the mutated graph and a from-scratch
// rebuild of the same content must produce identical results — and
// identical Stats, proving candidate selection takes the same access paths
// — for every instance, and an engine over the mutated graph must agree
// with both. (The generator's tombstoned cases check the same with
// NodeIDs kept, against the oracle.)
func TestMutatedGraphDifferential(t *testing.T) {
	seed := match.DifferentialSeed + 11
	rng := rand.New(rand.NewSource(seed))
	l := graph.NewLive(match.RandomGraph(t, 200, 600, seed))
	defer l.Close()
	mutationRounds(t, l, rng, 6)

	g := l.Graph()
	rebuilt, remap := rebuildLive(t, g)
	if err := graph.Equivalent(g, rebuilt); err != nil {
		t.Fatalf("structural equivalence: %v", err)
	}
	tpl, tplR := match.RandomTemplate(t, g), match.RandomTemplate(t, rebuilt)
	e := match.NewEngine(g, match.EngineOptions{})
	insts, instsR := match.AllInstantiations(tpl), match.AllInstantiations(tplR)
	if len(insts) != len(instsR) {
		t.Fatalf("instantiation counts differ: %d vs %d (domains diverged)", len(insts), len(instsR))
	}
	for i := range insts {
		q, qr := query.MustInstance(tpl, insts[i]), query.MustInstance(tplR, instsR[i])
		m, mr := match.New(g), match.New(rebuilt)
		want, gotR := m.EvalOutput(q), mr.EvalOutput(qr)
		var mapped []graph.NodeID
		for _, v := range want {
			mapped = append(mapped, remap[v])
		}
		if !reflect.DeepEqual(mapped, gotR) {
			t.Fatalf("%s: mutated %v (mapped %v) vs rebuilt %v", q, want, mapped, gotR)
		}
		if m.Stats != mr.Stats {
			t.Errorf("%s: stats diverged:\nmutated %+v\nrebuilt %+v", q, m.Stats, mr.Stats)
		}
		got, _, err := e.ParEvalNodeFiltered(context.Background(), q, q.T.Output, nil, nil)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: engine %v (err %v) vs sequential %v", q, got, err, want)
		}
	}
}
