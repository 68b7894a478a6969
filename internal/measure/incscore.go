package measure

import (
	"math"

	"fairsqg/internal/graph"
)

// The incremental scorer accumulates pairwise distances in fixed-point
// units of 2⁻³⁰. Integer accumulation is exactly associative, so a child's
// pair sum derived by subtracting removed contributions is bit-identical
// to summing its pairs from scratch — float64 accumulation cannot promise
// that (addition order changes the rounding), and the differential tests
// demand exact equality between the exact and delta paths. Quantizing a
// distance to 2⁻³⁰ perturbs each pair by at most ~10⁻⁹, far below the
// ε-dominance tolerances the archives run with.
const (
	pairUnitBits = 30
	pairUnitOne  = int64(1) << pairUnitBits
	// maxUnitPairs bounds the exact fixed-point path: beyond 2³² pairs the
	// unit sum could overflow int64, so EvalState falls back to the float
	// evaluator (which at that scale is dominated by the pair loop anyway).
	maxUnitPairs = int64(1) << 32
)

// pairUnits quantizes a distance to fixed-point units. The DistanceFunc
// contract puts d in [0,1]; out-of-contract values (including NaN) are
// clamped so the integer arithmetic stays well defined.
func pairUnits(d float64) int64 {
	if !(d > 0) { // catches d <= 0 and NaN
		return 0
	}
	if d >= 1 {
		return pairUnitOne
	}
	return int64(math.Round(d * float64(pairUnitOne)))
}

// ScoreState carries the reusable part of one exact diversity evaluation:
// the scored match set, its pair sum, and (lazily) each node's pairwise
// contribution S(v) = Σ_w d(v,w), all in fixed-point units. A state
// produced for a parent instance lets every refinement child that shrinks
// the match set (Lemma 2 guarantees they all do) be re-scored from the
// difference instead of from scratch. States form a chain through base
// until their contributions are materialized; the zero value is not
// useful — obtain states from Diversity.EvalState or EvalDelta.
//
// A ScoreState is not safe for concurrent mutation: contribution
// materialization writes to the chain. Runners keep states private per
// goroutine (ParQGen workers never exchange parents across slabs).
type ScoreState struct {
	matches   []graph.NodeID
	pairUnits int64
	// contrib[i] is S(matches[i]) in units; nil until materialized.
	contrib []int64
	// base/removed record the delta this state was derived by, consumed
	// (and released) when contrib is materialized.
	base    *ScoreState
	removed []graph.NodeID
}

// PairUnits exposes the fixed-point pair sum for tests.
func (s *ScoreState) PairUnits() int64 { return s.pairUnits }

// relevanceSum accumulates r(v) in match order; delta evaluation recomputes
// it from scratch so the float sum is bit-identical to the exact path's.
func (d *Diversity) relevanceSum(matches []graph.NodeID) float64 {
	rel := 0.0
	for _, v := range matches {
		rel += d.Relevance(v)
	}
	return rel
}

// scoreUnits assembles δ from a relevance sum and a fixed-point pair sum.
func (d *Diversity) scoreUnits(rel float64, units int64) float64 {
	norm := 0.0
	if d.LabelPopulation > 1 {
		norm = 2 * d.Lambda / float64(d.LabelPopulation-1)
	}
	return (1-d.Lambda)*rel + norm*(float64(units)/float64(pairUnitOne))
}

// EvalState computes δ exactly and returns the reusable state backing
// subsequent EvalDelta calls. When the pair count exceeds MaxPairs (or the
// fixed-point overflow bound) it falls back to Eval's sampled/float path
// and returns a nil state: sampled scores are estimates, so there is
// nothing sound to derive children from. matches must be sorted ascending
// (verification always produces sorted answers) and must not be mutated
// afterwards.
func (d *Diversity) EvalState(matches []graph.NodeID) (float64, *ScoreState) {
	n := len(matches)
	numPairs := int64(n) * int64(n-1) / 2
	if (d.MaxPairs > 0 && numPairs > int64(d.MaxPairs)) || numPairs > maxUnitPairs {
		return d.Eval(matches), nil
	}
	dist := d.pairFn(numPairs)
	contrib := make([]int64, n)
	var units int64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			u := pairUnits(dist(matches[i], matches[j]))
			units += u
			contrib[i] += u
			contrib[j] += u
		}
	}
	st := &ScoreState{matches: matches, pairUnits: units, contrib: contrib}
	return d.scoreUnits(d.relevanceSum(matches), units), st
}

// EvalDelta computes δ for a child match set from a scored parent state,
// exploiting q_child(G) ⊆ q_parent(G): the child's pair sum is the
// parent's minus the removed nodes' contributions, plus the removed-removed
// pairs subtracted twice (inclusion–exclusion). O(|removed|·depth + |removed|²)
// distance work instead of O(n²). The result — and the returned state — is
// bit-identical to EvalState on the same set, because both accumulate the
// same quantized units and integer addition is associative. ok reports
// false when the delta path does not apply (nil or sampled parent, not a
// subset, or a removal too large to beat recomputation); callers then fall
// back to EvalState.
func (d *Diversity) EvalDelta(parent *ScoreState, matches []graph.NodeID) (float64, *ScoreState, bool) {
	if parent == nil {
		return 0, nil, false
	}
	removed, removedPos, ok := subsetDiff(parent.matches, matches)
	if !ok {
		return 0, nil, false
	}
	if len(removed) == 0 {
		// Identical match set: share the parent state outright (including
		// any contributions already materialized on it).
		return d.scoreUnits(d.relevanceSum(matches), parent.pairUnits), parent, true
	}
	if len(removed) >= len(matches) {
		// More than half the set vanished: the O(|removed|²) correction no
		// longer undercuts the O(n²) recompute, and a fresh state resets
		// the materialization chain.
		return 0, nil, false
	}
	if d.MaxPairs > 0 {
		n := int64(len(matches))
		if n*(n-1)/2 > int64(d.MaxPairs) {
			return 0, nil, false // defensive: the parent could not have been exact
		}
	}
	pc := parent.contribution(d)
	dist := d.pairFn(int64(len(removed)) * int64(len(removed)-1) / 2)
	units := parent.pairUnits
	for _, pi := range removedPos {
		units -= pc[pi]
	}
	for i := 0; i < len(removed); i++ {
		for j := i + 1; j < len(removed); j++ {
			units += pairUnits(dist(removed[i], removed[j]))
		}
	}
	st := &ScoreState{matches: matches, pairUnits: units, base: parent, removed: removed}
	return d.scoreUnits(d.relevanceSum(matches), units), st, true
}

// subsetDiff walks two ascending NodeID lists and returns the elements of
// parent missing from child together with their positions in parent; ok
// reports whether child really is a subset of parent.
func subsetDiff(parent, child []graph.NodeID) (removed []graph.NodeID, removedPos []int, ok bool) {
	if len(child) > len(parent) {
		return nil, nil, false
	}
	j := 0
	for i, v := range parent {
		if j < len(child) && child[j] == v {
			j++
			continue
		}
		removed = append(removed, v)
		removedPos = append(removedPos, i)
	}
	if j != len(child) {
		return nil, nil, false
	}
	return removed, removedPos, true
}

// contribution returns the state's per-node contribution array,
// materializing it lazily. A state born from EvalDelta records only its
// (base, removed) delta — enough to score itself — and pays the
// O(|removed|·n) contribution update only when a child of its own needs
// it. The chain below the state is materialized oldest-first and released
// as it goes, so repeated scoring along one refinement path does linear
// total work.
func (s *ScoreState) contribution(d *Diversity) []int64 {
	if s.contrib != nil {
		return s.contrib
	}
	var chain []*ScoreState
	for cur := s; cur.contrib == nil; cur = cur.base {
		chain = append(chain, cur)
	}
	for k := len(chain) - 1; k >= 0; k-- {
		cur := chain[k]
		base := cur.base
		contrib := make([]int64, len(cur.matches))
		bi := 0
		for ci, v := range cur.matches {
			for base.matches[bi] != v {
				bi++
			}
			contrib[ci] = base.contrib[bi]
			bi++
		}
		dist := d.pairFn(int64(len(cur.removed)) * int64(len(cur.matches)))
		for _, u := range cur.removed {
			for ci, v := range cur.matches {
				contrib[ci] -= pairUnits(dist(u, v))
			}
		}
		cur.contrib = contrib
		cur.base, cur.removed = nil, nil
	}
	return s.contrib
}
