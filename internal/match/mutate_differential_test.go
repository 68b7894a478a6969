package match

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"fairsqg/internal/graph"
	"fairsqg/internal/query"
)

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

// TestMutatedGraphDifferential is the matcher-level equivalence suite for
// the mutation layer: after a series of batches (with a compaction in the
// middle), the mutated graph and a from-scratch rebuild of the same
// content must produce identical results — and identical Stats, proving
// candidate selection takes the same access paths — for every instance,
// and an engine over the mutated graph must agree with both.
func TestMutatedGraphDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(differentialSeed + 11))
	base := randomGraph(t, 200, 600, differentialSeed+11)
	l := graph.NewLive(base)
	defer l.Close()
	mutationRounds(t, l, rng, 6)

	g := l.Graph()
	rebuilt, remap := rebuildLive(t, g)
	if err := graph.Equivalent(g, rebuilt); err != nil {
		t.Fatalf("structural equivalence: %v", err)
	}

	tpl := randomTemplate(t, g)
	tplR := randomTemplate(t, rebuilt)
	e := NewEngine(g, EngineOptions{})
	insts := allInstantiations(tpl)
	instsR := allInstantiations(tplR)
	if len(insts) != len(instsR) {
		t.Fatalf("instantiation counts differ: %d vs %d (domains diverged)", len(insts), len(instsR))
	}
	for i := range insts {
		q := query.MustInstance(tpl, insts[i])
		qr := query.MustInstance(tplR, instsR[i])

		m := New(g)
		want := m.EvalOutput(q)
		mr := New(rebuilt)
		gotR := mr.EvalOutput(qr)

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
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: engine %v vs sequential %v", q, got, want)
		}
	}
}

// TestSharedCacheAcrossGenerations is the cache-invalidation regression
// suite: one standalone candidate cache attached to matchers over the
// successive generations of a mutating graph must never serve a
// pre-mutation entry (zero cross-generation hits), while a second graph
// sharing the same cache keeps hitting its own warm entries throughout.
func TestSharedCacheAcrossGenerations(t *testing.T) {
	base := talentGraph(t)
	l := graph.NewLive(base)
	defer l.Close()
	other := randomGraph(t, 60, 150, 99)

	shared := NewCandidateCache(0)
	on := func(g *graph.Graph) *Matcher {
		m := New(g)
		m.Cache = shared
		return m
	}
	tpl := talentTpl(t)
	q := query.MustInstance(tpl, allInstantiations(tpl)[0])

	m1 := on(l.Graph())
	first := m1.EvalOutput(q)
	afterFirst := shared.Stats()
	if afterFirst.Misses == 0 || afterFirst.Entries == 0 {
		t.Fatalf("first run should populate the cache: %+v", afterFirst)
	}
	m1.EvalOutput(q)
	if warmed := shared.Stats(); warmed.Hits <= afterFirst.Hits {
		t.Fatalf("same-generation rerun should hit: %+v -> %+v", afterFirst, warmed)
	}

	// Warm the unrelated graph's entries through the same shared cache.
	tplO := randomTemplate(t, other)
	qO := query.MustInstance(tplO, allInstantiations(tplO)[0])
	mOther := on(other)
	mOther.EvalOutput(qO)
	otherWarm := shared.Stats()

	// Mutate: drop one director the first run returned.
	if len(first) == 0 {
		t.Fatal("fixture returned no results")
	}
	if _, err := l.Apply([]graph.Mutation{{Op: graph.MutRemoveNode, Node: first[0]}}); err != nil {
		t.Fatal(err)
	}
	m2 := on(l.Graph())
	second := m2.EvalOutput(q)
	afterMutate := shared.Stats()
	if afterMutate.Hits != otherWarm.Hits {
		t.Errorf("cross-generation cache hits: %d after mutation, want %d (stale candidates served)",
			afterMutate.Hits, otherWarm.Hits)
	}
	if slices.Contains(second, first[0]) {
		t.Errorf("removed node %d still in results %v", first[0], second)
	}
	// New generation's entries are cached under their own keys.
	m2.EvalOutput(q)
	if s := shared.Stats(); s.Hits <= afterMutate.Hits {
		t.Errorf("post-mutation rerun should hit the fresh entries: %+v -> %+v", afterMutate, s)
	}
	// The unrelated graph's warm entries survived the other graph's
	// mutation: rerunning it hits without new misses.
	beforeOther := shared.Stats()
	mOther.EvalOutput(qO)
	if afterOther := shared.Stats(); afterOther.Misses != beforeOther.Misses || afterOther.Hits <= beforeOther.Hits {
		t.Errorf("unrelated graph's entries were invalidated: %+v -> %+v", beforeOther, afterOther)
	}
}

// TestCompactionKeepsCacheWarm asserts the flip side of invalidation: a
// compaction rebuilds the representation without changing the logical
// generation, so the answer is unchanged and a standalone cache's candidate
// lists stay valid and keep hitting.
func TestCompactionKeepsCacheWarm(t *testing.T) {
	base := talentGraph(t)
	l := graph.NewLive(base)
	defer l.Close()
	if _, err := l.Apply([]graph.Mutation{{Op: graph.MutAddNode, Label: "Person",
		Attrs: []graph.AttrPair{{Name: "title", Value: graph.Str("Director")}}}}); err != nil {
		t.Fatal(err)
	}
	shared := NewCandidateCache(0)
	tpl := talentTpl(t)
	q := query.MustInstance(tpl, allInstantiations(tpl)[0])

	m1 := New(l.Graph())
	m1.Cache = shared
	want := m1.EvalOutput(q)
	before := shared.Stats()
	l.Compact()
	e := NewEngine(l.Graph(), EngineOptions{})
	got, _, err := e.ParEvalNodeFiltered(context.Background(), q, q.T.Output, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("results changed across compaction: %v vs %v", got, want)
	}
	m2 := New(l.Graph())
	m2.Cache = shared
	m2.EvalOutput(q)
	if after := shared.Stats(); after.Misses != before.Misses || after.Hits <= before.Hits {
		t.Errorf("compaction invalidated the cache: %+v -> %+v", before, after)
	}
}
