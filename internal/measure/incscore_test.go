package measure

import (
	"math"
	"math/rand"
	"testing"

	"fairsqg/internal/graph"
)

// incGraph builds a deterministic mixed-attribute graph for the incremental
// scoring tests: string, numeric and occasionally-missing attributes so the
// distances are non-trivial and non-uniform.
func incGraph(t testing.TB, n int, seed int64) (*graph.Graph, []graph.NodeID) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	majors := []string{"cs", "math", "bio", "econ", "art", "law", "med"}
	g := graph.New()
	ids := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		attrs := map[string]graph.Value{
			"major": graph.Str(majors[rng.Intn(len(majors))]),
		}
		if rng.Float64() < 0.9 { // some nodes miss the numeric attribute
			attrs["exp"] = graph.Int(int64(rng.Intn(25)))
		}
		ids[i] = g.AddNode("P", attrs)
	}
	g.Freeze()
	return g, ids
}

func incDiversity(g *graph.Graph, n, maxPairs int) *Diversity {
	return &Diversity{
		Lambda:          0.5,
		Relevance:       DegreeRelevance(g, "P"),
		Distance:        TupleDistance(g, []string{"major", "exp"}),
		LabelPopulation: n,
		MaxPairs:        maxPairs,
	}
}

// subsetOf removes the nodes at the given positions, keeping order.
func subsetOf(ids []graph.NodeID, dropEvery int) []graph.NodeID {
	var out []graph.NodeID
	for i, v := range ids {
		if dropEvery > 0 && i%dropEvery == 0 {
			continue
		}
		out = append(out, v)
	}
	return out
}

func TestPairUnits(t *testing.T) {
	cases := []struct {
		d    float64
		want int64
	}{
		{0, 0},
		{-0.5, 0},
		{math.NaN(), 0},
		{1, pairUnitOne},
		{1.5, pairUnitOne},
		{0.5, pairUnitOne / 2},
	}
	for _, c := range cases {
		if got := pairUnits(c.d); got != c.want {
			t.Errorf("pairUnits(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

// TestEvalStateMatchesEval: there is one way to sum a set's pairs — Eval
// returns EvalState's fixed-point value bit for bit — and it agrees with a
// float64 sum of the same distances up to quantization (each pair
// perturbed by < 2⁻³¹).
func TestEvalStateMatchesEval(t *testing.T) {
	g, ids := incGraph(t, 80, 7)
	div := incDiversity(g, 80, 0)
	got, st := div.EvalState(ids)
	if st == nil {
		t.Fatal("exact EvalState returned nil state")
	}
	if want := div.Eval(ids); got != want {
		t.Errorf("EvalState = %v, Eval = %v", got, want)
	}
	floatSum := 0.0
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			floatSum += div.Distance(ids[i], ids[j])
		}
	}
	if want := div.score(div.relevanceSum(ids), floatSum); math.Abs(got-want) > 1e-6 {
		t.Errorf("EvalState = %v, float64 pair sum scores %v", got, want)
	}
	// Empty and singleton sets.
	if got, st := div.EvalState(nil); got != 0 || st == nil {
		t.Errorf("EvalState(∅) = %v, %v", got, st)
	}
	if got, _ := div.EvalState(ids[:1]); got != div.Eval(ids[:1]) {
		t.Errorf("EvalState singleton = %v, want %v", got, div.Eval(ids[:1]))
	}
}

// TestEvalDeltaBitIdentical is the core promise: a child scored through the
// subset-delta path is bit-identical — same float64, same fixed-point pair
// sum — to scoring the child from scratch.
func TestEvalDeltaBitIdentical(t *testing.T) {
	g, ids := incGraph(t, 100, 11)
	div := incDiversity(g, 100, 0)
	_, parent := div.EvalState(ids)
	// dropEvery = 2 would remove exactly half the set, which the delta path
	// declines by design (see TestEvalDeltaRejections).
	for _, dropEvery := range []int{3, 4, 5, 10} {
		child := subsetOf(ids, dropEvery)
		wantScore, wantState := div.EvalState(child)
		gotScore, gotState, ok := div.EvalDelta(parent, child)
		if !ok {
			t.Fatalf("dropEvery=%d: delta path rejected a subset", dropEvery)
		}
		if gotScore != wantScore {
			t.Errorf("dropEvery=%d: delta score %v != exact %v", dropEvery, gotScore, wantScore)
		}
		if gotState.PairUnits() != wantState.PairUnits() {
			t.Errorf("dropEvery=%d: delta units %d != exact %d",
				dropEvery, gotState.PairUnits(), wantState.PairUnits())
		}
	}
}

// TestEvalDeltaChain walks a refinement chain, always scoring through the
// previous delta state, so grandchildren force the lazy contribution
// materialization; every link must stay bit-identical to from-scratch.
func TestEvalDeltaChain(t *testing.T) {
	g, ids := incGraph(t, 120, 13)
	div := incDiversity(g, 120, 0)
	_, state := div.EvalState(ids)
	cur := ids
	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 6 && len(cur) > 10; step++ {
		// Drop a random ~15% of the surviving set.
		var child []graph.NodeID
		for _, v := range cur {
			if rng.Float64() < 0.15 {
				continue
			}
			child = append(child, v)
		}
		wantScore, wantState := div.EvalState(child)
		gotScore, gotState, ok := div.EvalDelta(state, child)
		if !ok {
			t.Fatalf("step %d: delta path rejected a subset", step)
		}
		if gotScore != wantScore || gotState.PairUnits() != wantState.PairUnits() {
			t.Fatalf("step %d: delta (%v, %d) != exact (%v, %d)",
				step, gotScore, gotState.PairUnits(), wantScore, wantState.PairUnits())
		}
		cur, state = child, gotState
	}
}

func TestEvalDeltaIdenticalSetSharesState(t *testing.T) {
	g, ids := incGraph(t, 40, 17)
	div := incDiversity(g, 40, 0)
	want, parent := div.EvalState(ids)
	got, st, ok := div.EvalDelta(parent, ids)
	if !ok || st != parent {
		t.Fatalf("identical set: ok=%v, state shared=%v", ok, st == parent)
	}
	if got != want {
		t.Errorf("identical set rescored to %v, want %v", got, want)
	}
}

func TestEvalDeltaRejections(t *testing.T) {
	g, ids := incGraph(t, 60, 19)
	div := incDiversity(g, 60, 0)
	_, parent := div.EvalState(ids)

	// Nil parent.
	if _, _, ok := div.EvalDelta(nil, ids[:10]); ok {
		t.Error("nil parent accepted")
	}
	// Not a subset: a node outside the parent's set.
	notSub := append(append([]graph.NodeID(nil), ids[:10]...), graph.NodeID(1e6))
	if _, _, ok := div.EvalDelta(parent, notSub); ok {
		t.Error("non-subset accepted")
	}
	// Superset (child longer than parent).
	_, small := div.EvalState(ids[:5])
	if _, _, ok := div.EvalDelta(small, ids[:10]); ok {
		t.Error("superset accepted")
	}
	// Removal of at least half the set falls back to recompute.
	if _, _, ok := div.EvalDelta(parent, ids[:len(ids)/4]); ok {
		t.Error("massive removal should reject the delta path")
	}
}

// TestEvalDeltaSamplingBoundary: a set over the MaxPairs cap must be
// sampled (nil state) and never feed the delta path; a set exactly at the
// cap stays exact.
func TestEvalDeltaSamplingBoundary(t *testing.T) {
	g, ids := incGraph(t, 50, 23)
	atCap := 50 * 49 / 2
	div := incDiversity(g, 50, atCap)
	if _, st := div.EvalState(ids); st == nil {
		t.Fatal("numPairs == MaxPairs should stay exact")
	}
	div.MaxPairs = atCap - 1
	score, st := div.EvalState(ids)
	if st != nil {
		t.Fatal("numPairs > MaxPairs should sample and return nil state")
	}
	if want := div.Eval(ids); score != want {
		t.Errorf("sampled EvalState = %v, want Eval's %v", score, want)
	}
}

// TestEvalDeltaCachedDistance: the delta path composed with a pair cache
// (the wiring for caller-supplied distances) stays bit-identical, and
// repeated evaluation hits the cache.
func TestEvalDeltaCachedDistance(t *testing.T) {
	g, ids := incGraph(t, 80, 29)
	cache := NewPairCache(0)
	feats := NewDistanceFeatures(g, []string{"major", "exp"})
	div := &Diversity{
		Lambda:          0.5,
		Relevance:       DegreeRelevance(g, "P"),
		Distance:        cache.Scope("tuple").Wrap(feats.Func()),
		LabelPopulation: 80,
	}
	_, parent := div.EvalState(ids)
	child := subsetOf(ids, 4)
	wantScore, _ := div.EvalState(child)
	gotScore, _, ok := div.EvalDelta(parent, child)
	if !ok || gotScore != wantScore {
		t.Fatalf("cached delta: ok=%v got=%v want=%v", ok, gotScore, wantScore)
	}
	st := cache.Stats()
	if st.Hits == 0 || st.Evals != st.Misses {
		t.Errorf("cache stats inconsistent: %+v", st)
	}
}

// TestDiversityFeaturesDirect: a Diversity bound to Features (the wiring
// for the default tuple distance) against one bound to the same function as
// an opaque Distance, exact, delta-chained and sampled. Over a free-text
// column alone both run the same pair loop and return the same bits; with
// numbers and categories beside it the direct path sums those by column, so
// it differs only by the pair loop's 2⁻³⁰ quantization. Either way both
// count the same pair evaluations, from the loop bounds.
func TestDiversityFeaturesDirect(t *testing.T) {
	g := featGraph(t, 130, 31)
	ids := make([]graph.NodeID, g.NumNodes())
	for i := range ids {
		ids[i] = graph.NodeID(i)
	}
	for _, attrs := range [][]string{{"bio"}, {"cat", "bio", "score"}} {
		exact := len(attrs) == 1
		same := func(what string, got, want float64) {
			if exact && got != want || math.Abs(got-want) > 1e-9*math.Abs(want) {
				t.Errorf("%v %s: direct %v, reference %v", attrs, what, got, want)
			}
		}
		feats := NewDistanceFeatures(g, attrs)
		mk := func(maxPairs int, direct bool) *Diversity {
			d := &Diversity{Lambda: 0.5, Relevance: DegreeRelevance(g, "P"), LabelPopulation: len(ids), MaxPairs: maxPairs}
			if direct {
				d.Features = feats
			} else {
				d.Distance = referenceTupleDistance(g, attrs)
			}
			return d
		}
		direct, ref := mk(0, true), mk(0, false)
		gotScore, gotState := direct.EvalState(ids)
		wantScore, wantState := ref.EvalState(ids)
		same("exact", gotScore, wantScore)
		if exact && gotState.PairUnits() != wantState.PairUnits() {
			t.Errorf("%v exact: direct %d units, reference %d", attrs, gotState.PairUnits(), wantState.PairUnits())
		}
		n := int64(len(ids))
		if got := direct.PairEvals(); got != n*(n-1)/2 {
			t.Errorf("%v: exact scoring counted %d pair evals, want %d", attrs, got, n*(n-1)/2)
		}
		child, grandchild := subsetOf(ids, 5), subsetOf(subsetOf(ids, 5), 7)
		for _, set := range [][]graph.NodeID{child, grandchild} {
			var ok1, ok2 bool
			gotScore, gotState, ok1 = direct.EvalDelta(gotState, set)
			wantScore, wantState, ok2 = ref.EvalDelta(wantState, set)
			if !ok1 || !ok2 {
				t.Fatalf("%v delta: direct %v, reference %v", attrs, ok1, ok2)
			}
			same("delta", gotScore, wantScore)
			if fresh, _ := mk(0, true).EvalState(set); fresh != gotScore {
				t.Errorf("%v: delta %v, from scratch %v", attrs, gotScore, fresh)
			}
		}
		if direct.PairEvals() != ref.PairEvals() {
			t.Errorf("%v: pair evals diverge: direct %d, reference %d", attrs, direct.PairEvals(), ref.PairEvals())
		}
		if !exact {
			continue
		}
		sampled, sampledRef := mk(500, true), mk(500, false)
		if got, want := sampled.Eval(ids), sampledRef.Eval(ids); got != want {
			t.Errorf("sampled: direct %v != reference %v", got, want)
		}
		if got := sampled.PairEvals(); got != 500 {
			t.Errorf("sampled scoring counted %d pair evals, want 500", got)
		}
	}
}
