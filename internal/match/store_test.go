package match

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"fairsqg/internal/graph"
	"fairsqg/internal/query"
)

// TestStoreBoundedLRU: one byte ceiling over every entry, least recently
// used out first, an incumbent kept, a value larger than the ceiling not
// stored at all, a zero ceiling storing nothing.
func TestStoreBoundedLRU(t *testing.T) {
	const each = 200
	s := &Store{stats: StoreStats{Ceiling: 3 * each}}
	for _, k := range []string{"a", "b", "c"} {
		if got := s.put(k, k, each); got != k {
			t.Fatalf("put %s returned %v", k, got)
		}
	}
	if got := s.put("a", "other", each); got != "a" {
		t.Errorf("second put of a returned %v, want the incumbent", got)
	}
	if _, ok := s.get("a"); !ok { // a is now the most recently used
		t.Fatal("a missing")
	}
	s.put("d", "d", each) // evicts b, the least recently used
	if _, ok := s.get("b"); ok {
		t.Error("b survived the eviction")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := s.get(k); !ok {
			t.Errorf("%s evicted, want b only", k)
		}
	}
	if got := s.put("huge", "huge", 3*each+1); got != "huge" {
		t.Errorf("oversized put returned %v", got)
	}
	if _, ok := s.get("huge"); ok {
		t.Error("a value larger than the ceiling was stored")
	}
	want := StoreStats{Entries: 3, Bytes: 3 * each, Ceiling: 3 * each, Hits: 4, Misses: 2, Evictions: 1}
	if s.stats != want {
		t.Errorf("stats %+v, want %+v", s.stats, want)
	}
	var off Store
	off.put("a", "a", 1)
	if _, ok := off.get("a"); ok || off.stats.Entries != 0 {
		t.Errorf("a zero ceiling stored something: %+v", off.stats)
	}
}

// keyOf parses a template whose ladders are pinned and returns the answer
// key of its bottom instance: every literal bound, every edge present.
func keyOf(t *testing.T, dsl string) (string, *query.Instance) {
	t.Helper()
	tpl, err := query.ParseString(dsl)
	if err != nil {
		t.Fatalf("%v\n%s", err, dsl)
	}
	q := query.MustInstance(tpl, query.Bottom(tpl))
	return AnswerKey(q), q
}

// TestAnswerKeySoundness: the key is the concrete pattern. Templates that
// share a name but differ in one thing buildPlan reads never share a key —
// and an answer stored for one is not found for the other; templates that
// differ in what it does not read (name, variable names, ladder layout,
// inactive parts) do.
func TestAnswerKeySoundness(t *testing.T) {
	const base = `template t
node u_o Person yearsOfExp >= $x
node u1 Person
node o Org employees >= 100
edge u1 u_o recommend
edge u_o o worksAt ?e
ladder $x 1 5
output u_o
`
	g := randomGraph(t, 400, 1600, 5)
	e := NewEngine(g, EngineOptions{})
	baseKey, q := keyOf(t, base)
	want, _, _, err := e.ParEvalOutputSeeded(context.Background(), q, nil, nil, nil, false, baseKey)
	if err != nil || len(want) == 0 {
		t.Fatalf("base answer %v, err %v", want, err)
	}
	if got, ok := e.Answer(baseKey); !ok || !slices.Equal(got, want) {
		t.Fatalf("stored %v (found %v), want %v", got, ok, want)
	}
	for name, edit := range map[string][2]string{
		"literal constant": {"ladder $x 1 5", "ladder $x 1 6"},
		"fixed constant":   {"employees >= 100", "employees >= 101"},
		"operator":         {"yearsOfExp >= $x", "yearsOfExp > $x"},
		"value kind":       {"ladder $x 1 5", `ladder $x 1 "5"`},
		"edge label":       {"edge u1 u_o recommend", "edge u1 u_o worksAt"},
		"edge direction":   {"edge u1 u_o recommend", "edge u_o u1 recommend"},
		"output node":      {"output u_o", "output u1"},
		"node label":       {"node u1 Person", "node u1 Org"},
		"attribute":        {"employees >= 100", "yearsOfExp >= 100"},
		"one more edge":    {"output u_o", "edge u1 o worksAt\noutput u_o"},
	} {
		dsl := replaceOnce(t, base, edit[0], edit[1])
		key, _ := keyOf(t, dsl)
		if key == baseKey {
			t.Errorf("%s: changed template shares the key %q", name, key)
		}
		if _, ok := e.Answer(key); ok {
			t.Errorf("%s: changed template finds the base answer", name)
		}
	}
	// The same pattern under another name, other variable names, a ladder
	// laid out differently and a part the instance leaves inactive.
	same := `template other
node u_o Person yearsOfExp >= $years
node u1 Person
node o Org employees >= 100
node spare Person yearsOfExp >= $unused
edge u1 u_o recommend
edge u_o o worksAt
edge spare u1 recommend ?off
ladder $years 0 2 5
ladder $unused 3
output u_o
`
	tpl, err := query.ParseString(same)
	if err != nil {
		t.Fatal(err)
	}
	in := query.Bottom(tpl)
	in[tpl.Var("off")] = 0
	if key := AnswerKey(query.MustInstance(tpl, in)); key != baseKey {
		t.Errorf("same pattern, other template:\n%q\n%q", key, baseKey)
	}
}

func replaceOnce(t *testing.T, s, old, new string) string {
	t.Helper()
	i := strings.Index(s, old)
	if i < 0 {
		t.Fatalf("%q not in template", old)
	}
	return s[:i] + new + s[i+len(old):]
}

// TestStoreKeepsOnlyWholeAnswers: an evaluation the bound check vetoed, one
// its context cut short and any on an engine under a backtracking budget —
// truncated itself or not: it may have searched inside a truncated parent —
// leave nothing behind; a whole answer — an empty one included — is there
// for the next asker, and is what the sequential matcher computes.
func TestStoreKeepsOnlyWholeAnswers(t *testing.T) {
	g := randomGraph(t, 400, 1600, 5)
	ctx := context.Background()
	tpl := shapeTemplate(t, "cycle", g)
	closed := query.Root(tpl)
	closed[tpl.Var("e1")], closed[tpl.Var("e2")] = 1, 1
	// The root is u_o → u1 alone: one expansion per candidate.
	two, three := query.MustInstance(tpl, query.Root(tpl)), query.MustInstance(tpl, closed)
	if len(New(g).EvalOutput(three)) == 0 {
		t.Fatal("the closed cycle has no answer on this graph")
	}
	kept := func(e *Engine, q *query.Instance) bool { _, ok := e.Answer(AnswerKey(q)); return ok }

	e := NewEngine(g, EngineOptions{})
	if _, ok, _, _ := e.ParEvalOutputSeeded(ctx, two, nil, func([]graph.NodeID) bool { return false }, nil, false, AnswerKey(two)); ok || kept(e, two) {
		t.Errorf("vetoed evaluation: ok %v, answer kept %v", ok, kept(e, two))
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, _, err := e.ParEvalOutputSeeded(cancelled, three, nil, nil, nil, false, AnswerKey(three)); err == nil || kept(e, three) {
		t.Errorf("cancelled evaluation: err %v, answer kept %v", err, kept(e, three))
	}
	for _, q := range []*query.Instance{two, three} {
		got, _, _, err := e.ParEvalOutputSeeded(ctx, q, nil, nil, nil, false, AnswerKey(q))
		if err != nil {
			t.Fatal(err)
		}
		stored, ok := e.Answer(AnswerKey(q))
		if want := New(g).EvalOutput(q); !ok || !slices.Equal(stored, want) || !slices.Equal(got, want) {
			t.Errorf("%s: stored %v (found %v), returned %v, want %v", q, stored, ok, got, want)
		}
	}
	// Its candidate lists are stored already, so nothing may be added.
	before := e.Stats().Shared.Entries
	if _, _, _, err := e.ParEvalOutputSeeded(ctx, two, nil, nil, nil, false, ""); err != nil || e.Stats().Shared.Entries != before {
		t.Errorf("an evaluation without a key stored something: %d entries, then %d, err %v", before, e.Stats().Shared.Entries, err)
	}

	// Two expansions per candidate answer the two-node pattern and close the
	// three-node cycle only where the first neighbour tried does. The
	// truncated answer is not kept, and neither is what was then searched
	// inside it without running out: a query nobody truncated, answered short.
	tight := NewEngine(g, EngineOptions{Settings: Settings{MaxBacktrackNodes: 2}})
	cut, _, _, err := tight.ParEvalOutputSeeded(ctx, three, nil, nil, nil, false, AnswerKey(three))
	if err != nil || len(cut) == 0 || len(cut) >= len(New(g).EvalOutput(three)) {
		t.Fatalf("a budget of two did not truncate the cycle: %d matches, err %v", len(cut), err)
	}
	inside, _, _, err := tight.ParEvalOutputSeeded(ctx, two, cut, nil, nil, false, AnswerKey(two))
	if err != nil || len(inside) >= len(New(g).EvalOutput(two)) {
		t.Fatalf("searching inside the truncated answer found %d matches, err %v", len(inside), err)
	}
	if kept(tight, three) || kept(tight, two) {
		t.Error("a budgeted engine kept an answer")
	}

	// An empty answer is a whole answer.
	none, err := query.ParseString("template none\nnode u_o Person yearsOfExp > 1000\noutput u_o\n")
	if err != nil {
		t.Fatal(err)
	}
	q := query.MustInstance(none, query.Root(none))
	if got, _, _, err := e.ParEvalOutputSeeded(ctx, q, nil, nil, nil, false, AnswerKey(q)); err != nil || len(got) != 0 {
		t.Fatalf("empty pattern: %v, err %v", got, err)
	}
	if got, ok := e.Answer(AnswerKey(q)); !ok || len(got) != 0 {
		t.Errorf("empty answer: stored %v, found %v", got, ok)
	}
}

// TestDerivedSpecsNeverCollide: specs that differ only in where their strings
// are cut — none, one empty, one holding a NUL or the separator, two — are
// different values, and the same spec is the same value.
func TestDerivedSpecsNeverCollide(t *testing.T) {
	e := NewEngine(randomGraph(t, 50, 100, 1), EngineOptions{})
	specs := [][]string{nil, {""}, {"", ""}, {"a\x00b"}, {"a", "b"}, {"a,1:b"}, {"ab"}, {"a"}, {"1:a"}}
	for i, spec := range specs {
		if v, hit := e.Derived("k", spec, func() (any, int64) { return i, 8 }); hit || v != i {
			t.Errorf("spec %q got %v (hit %v): the value of spec %q", spec, v, hit, specs[v.(int)])
		}
	}
	for i, spec := range specs {
		if v, hit := e.Derived("k", spec, func() (any, int64) { return -1, 8 }); !hit || v != i {
			t.Errorf("spec %q again: %v, hit %v", spec, v, hit)
		}
	}
	if v, hit := e.Derived("k2", nil, func() (any, int64) { return "other", 8 }); hit || v != "other" {
		t.Errorf("another kind shared a value: %v, hit %v", v, hit)
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
