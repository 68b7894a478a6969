package measure

import (
	"runtime"
	"slices"
	"testing"

	"fairsqg/internal/graph"
)

// atProcs runs f with GOMAXPROCS set to p.
func atProcs(p int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
	f()
}

// splitOutcome is what one evaluator reports over the split fixture, less
// the materialized contributions.
type splitOutcome struct {
	sampled10k, sampled200k, exact, delta float64
	exactUnits, deltaUnits                int64
	evals, splits                         int64
}

// scoreSplitFixture scores ids the ways a run does: sampled at 10,000 and
// 200,000 pairs, exactly over the first 300, and by delta down a two-step
// refinement chain whose middle state gets its contributions materialized;
// it returns those and the exact state's.
func scoreSplitFixture(t *testing.T, d *Diversity, ids []graph.NodeID) (splitOutcome, []int64) {
	var o splitOutcome
	d.MaxPairs = 10000
	o.sampled10k = d.Eval(ids)
	d.MaxPairs = 200000
	o.sampled200k = d.Eval(ids)
	d.MaxPairs = 0
	var st, child *ScoreState
	o.exact, st = d.EvalState(ids[:300])
	var ok bool
	if o.delta, child, ok = d.EvalDelta(st, subsetOf(ids[:300], 4)); !ok {
		t.Fatal("delta path rejected a subset")
	}
	if _, _, ok = d.EvalDelta(child, subsetOf(child.matches, 5)); !ok {
		t.Fatal("delta path rejected a grandchild")
	}
	o.exactUnits, o.deltaUnits = st.PairUnits(), child.PairUnits()
	o.evals, o.splits = d.PairEvals(), d.Splits()
	return o, append(slices.Clone(st.contribution(d)), child.contribution(d)...)
}

// TestSplitScoringBitIdentical: sampled, exact and delta scores, the
// materialized contributions and the pair count are the same bits at
// GOMAXPROCS 1, 2 and 4 on free-text titles — where the exact and sampled
// loops split — and equal to the same function bound as an opaque
// Distance, which never splits.
func TestSplitScoringBitIdentical(t *testing.T) {
	g, ids := titleGraph(t, 2000)
	attrs := []string{"title"}
	feats := NewDistanceFeatures(g, attrs)
	run := func(p int, direct bool) (o splitOutcome, contrib []int64) {
		d := &Diversity{Lambda: 0.5, Relevance: DegreeRelevance(g, "Movie"), LabelPopulation: len(ids)}
		if direct {
			d.Features = feats
		} else {
			d.Distance = referenceTupleDistance(g, attrs)
		}
		atProcs(p, func() { o, contrib = scoreSplitFixture(t, d, ids) })
		return o, contrib
	}
	want, wantContrib := run(4, false)
	if want.splits != 0 {
		t.Fatalf("an opaque Distance split %d calls", want.splits)
	}
	for _, p := range []int{1, 2, 4} {
		got, contrib := run(p, true)
		if (p > 1) != (got.splits > 0) {
			t.Errorf("GOMAXPROCS %d: %d split calls", p, got.splits)
		}
		if got.splits = 0; got != want {
			t.Errorf("GOMAXPROCS %d: %+v, unsplit reference %+v", p, got, want)
		}
		if !slices.Equal(contrib, wantContrib) {
			t.Errorf("GOMAXPROCS %d: contributions differ from the unsplit reference", p)
		}
	}
}

// TestNoPairLoopWithoutFreeText: where every column decomposes, δ is the
// column sums alone at any answer size: no pair is evaluated, nothing
// splits, and no state is kept, as children score as cheaply from scratch.
func TestNoPairLoopWithoutFreeText(t *testing.T) {
	g, ids := benchGraph(t, 2000)
	d := &Diversity{Lambda: 0.5, Relevance: ConstantRelevance(1), LabelPopulation: len(ids),
		Features: NewDistanceFeatures(g, []string{"major", "exp"}), MaxPairs: 10000}
	atProcs(4, func() {
		for _, m := range [][]graph.NodeID{ids, ids[:300]} {
			if _, st := d.EvalState(m); st != nil {
				t.Errorf("%d nodes: a state without a pair loop", len(m))
			}
		}
	})
	if d.Splits() != 0 || d.PairEvals() != 0 {
		t.Errorf("decomposable columns: %d splits over %d pairs", d.Splits(), d.PairEvals())
	}
}

// TestSplitSampledAllocs: once its worker slots exist, a split sampled call
// allocates what launching its helper goroutine does — the closure carrying
// the share, and a goroutine descriptor when the runtime has no free one on
// the launching processor — and nothing beyond it. (testing.AllocsPerRun
// pins GOMAXPROCS to 1, which would keep the call from splitting, so the
// count is read off MemStats directly.)
func TestSplitSampledAllocs(t *testing.T) {
	g, ids := titleGraph(t, 2000)
	d := &Diversity{Lambda: 0.5, Relevance: ConstantRelevance(1), LabelPopulation: len(ids),
		Features: NewDistanceFeatures(g, titleAttrs), MaxPairs: 10000}
	const runs = 20
	var m0, m1 runtime.MemStats
	atProcs(2, func() {
		d.Eval(ids) // warm-up: worker slots and kernel scratch
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			d.Eval(ids)
		}
		runtime.ReadMemStats(&m1)
	})
	if d.Splits() != runs+1 {
		t.Fatalf("%d of %d calls split", d.Splits(), runs+1)
	}
	if allocs := float64(m1.Mallocs-m0.Mallocs) / runs; allocs > 2 {
		t.Errorf("a split sampled call allocated %.2f times; launching its one helper takes at most 2", allocs)
	}
}
