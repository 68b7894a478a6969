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
// their own, without a budget. equivFixtures is the table; each of its rows
// is a test of the row's name (runFixture).

// fixtureCase wraps g and tpl as a case of the checker, in the given
// backing.
func fixtureCase(t testing.TB, seed int64, g *graph.Graph, tpl *query.Template, mode match.Mode, shape, backing string) *equivCase {
	c := &equivCase{
		seed: seed, rng: rand.New(rand.NewSource(seed)), g: g, heap: g, nodes: g.NumNodes(), tpl: tpl,
		shape: shape, backing: backing, inherit: "default", settings: match.Settings{Mode: mode}, procs: runtime.GOMAXPROCS(0),
	}
	c.g = c.inBacking(t, g)
	return c
}

var bothModes = []match.Mode{match.Isomorphism, match.Homomorphism}

// equivFixtures are the fixture runs: every instantiation of the row's
// template over its graph, through the matcher level in each of the row's
// modes, on the row's backing (with outputOracle, the oracle at the output
// only), and through one engine per mode shared by all of them, so its
// candidate cache serves mixed keys: that engine's answer at the output
// must be the sequential matcher's. reach lists what the row must meet.
var equivFixtures = map[string]struct {
	build        func(testing.TB) (*graph.Graph, *query.Template)
	modes        []match.Mode
	backing      string
	outputOracle bool
	reach        []string
}{
	// The canonical talent fixture. Its e1=0 instances collapse to the
	// output node alone, so this is also where the checker meets inactive
	// nodes and single-node plans on a hand-built graph.
	"TestDifferentialTalentFixture": {talentFixture, bothModes, "heap", false, []string{"inactive node", "vetoed", "single-node plan", "within"}},
	// The talent fixture decoded from a snapshot and mapped from a file:
	// matching must not tell the copies from the heap graph, counters
	// included.
	"TestMatcherSnapshotDifferential": {talentFixture, bothModes, "decode", false, []string{"index selection"}},
	"TestMatcherMappedDifferential":   {talentFixture, bothModes, "mapped", false, []string{"index selection"}},
	// The mid-size random fixture: every instantiation of the 4-variable
	// random template, against the oracle at the output node.
	"TestDifferentialRandomGraph": {randomFixture, bothModes[:1], "heap", true, nil},
	// The hostile fixture, on the heap and decoded: parallel edges, Null
	// and NaN attribute values must not change anyone's answer.
	"TestDifferentialMultigraphNullNaN": {multiNullFixture, bothModes, "heap", false, nil},
	"TestEngineSnapshotDifferential":    {multiNullFixture, bothModes, "decode", false, nil},
}

// runFixture runs the row of t's name.
func runFixture(t *testing.T) {
	row := equivFixtures[t.Name()]
	g, tpl := row.build(t)
	reach := equivReach{}
	for _, mode := range row.modes {
		c := fixtureCase(t, match.DifferentialSeed, g, tpl, mode, t.Name(), row.backing)
		c.outputOracle = row.outputOracle
		e := match.NewEngine(c.g, match.EngineOptions{Settings: c.settings})
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
	for _, shape := range row.reach {
		if reach[shape] == 0 {
			t.Errorf("the fixture reached no %q evaluation: %v", shape, reach)
		}
	}
}

func TestDifferentialTalentFixture(t *testing.T)     { runFixture(t) }
func TestMatcherSnapshotDifferential(t *testing.T)   { runFixture(t) }
func TestMatcherMappedDifferential(t *testing.T)     { runFixture(t) }
func TestDifferentialRandomGraph(t *testing.T)       { runFixture(t) }
func TestDifferentialMultigraphNullNaN(t *testing.T) { runFixture(t) }
func TestEngineSnapshotDifferential(t *testing.T)    { runFixture(t) }

func talentFixture(t testing.TB) (*graph.Graph, *query.Template) {
	return match.TalentGraph(t), match.TalentTpl(t)
}

func randomFixture(t testing.TB) (*graph.Graph, *query.Template) {
	g := match.RandomGraph(t, 300, 900, match.DifferentialSeed)
	return g, match.RandomTemplate(t, g)
}

// multiNullFixture is a deliberately hostile fixture: a multigraph
// (parallel edges with identical endpoints and label must dedup, not
// double-count) in which attribute values include Null (absent) and NaN —
// the bottom of the value total order — on both template-constrained
// attributes. The template ranges over both; the edge variable turns the
// recommender off entirely, exercising projection.
//
//	p0 Person exp 10      p0 -rec-> p3 (x2), p0 -rec-> p1, p0 -works-> o4 (x2)
//	p1 Person exp NaN     p1 -rec-> p3, p1 -works-> o4
//	p2 Person (no exp)    p2 -rec-> p3 (x3), p2 -works-> o5
//	p3 Person exp 3       p3 -rec-> p0, p3 -works-> o5
//	o4 Org size 100
//	o5 Org (no size)
func multiNullFixture(t testing.TB) (*graph.Graph, *query.Template) {
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
	tpl := query.NewBuilder("multinull").
		Node("u_o", "Person").
		Node("u1", "Person").RangeVar("x", "u1", "exp", graph.OpGE).
		Node("org", "Org").RangeVar("y", "org", "size", graph.OpLE).
		VarEdge("e1", "u1", "u_o", "rec").
		Edge("u1", "org", "works").
		Output("u_o").MustBuild()
	if err := tpl.BindDomains(g, query.DomainOptions{MaxValues: 3}); err != nil {
		t.Fatal(err)
	}
	return g, tpl
}

// checkChains checks within-restricted evaluation (what incVerify runs)
// along random refinement chains over the random fixture of graphSeed: at
// each step the output node restricted to its parent's answer goes through
// checkEval, the oracle's answer lies inside the parent's (Lemma 2), so the
// restricted evaluation is the one from scratch, and an engine shared by
// the chains answers as the sequential matcher does.
func checkChains(t *testing.T, graphSeed, chainSeed int64, trials int) {
	g := match.RandomGraph(t, 300, 900, graphSeed)
	tpl := match.RandomTemplate(t, g)
	c := fixtureCase(t, chainSeed, g, tpl, match.Isomorphism, "random", "heap")
	m := match.New(g)
	e := match.NewEngine(g, match.EngineOptions{})
	reach := equivReach{}
	for trial := 0; trial < trials; trial++ {
		in := query.Root(tpl)
		parent := m.EvalOutput(query.MustInstance(tpl, in))
		for step := 0; step < 6; step++ {
			kids := query.RefineSteps(tpl, in)
			if len(kids) == 0 {
				break
			}
			in = kids[c.rng.Intn(len(kids))]
			q := query.MustInstance(tpl, in)
			oracle := match.BruteForceMatches(g, q, c.settings.Mode, q.T.Output)
			if slices.ContainsFunc(oracle, func(v graph.NodeID) bool { return !slices.Contains(parent, v) }) {
				t.Fatalf("%v: trial %d step %d: %s: refinement grew the answer %v to %v", c, trial, step, q, parent, oracle)
			}
			checkEval(t, c, q, q.T.Output, oracle, parent, 0, reach)
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

func TestDifferentialIncremental(t *testing.T) {
	checkChains(t, match.DifferentialSeed+1, match.DifferentialSeed+2, 20)
}

func TestIncrementalEqualsScratch(t *testing.T) { checkChains(t, 42, 99, 60) }

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
