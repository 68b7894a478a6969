package measure

import (
	"math"
	"sync"

	"fairsqg/internal/graph"
)

// The incremental scorer accumulates pairwise distances in fixed-point
// units of 2⁻³⁰. Integer accumulation is exactly associative, so a child's
// pair sum derived by subtracting removed contributions is bit-identical
// to summing its pairs from scratch — float64 accumulation cannot promise
// that (addition order changes the rounding), and the differential tests
// demand exact equality between the exact and delta paths. For the same
// reason the shares of a split pair loop (sampled or exact) add up to one
// sum whatever the worker count and completion order. Quantizing a
// distance to 2⁻³⁰ perturbs each pair by at most ~10⁻⁹, far below the
// ε-dominance tolerances the archives run with.
const (
	pairUnitBits = 30
	pairUnitOne  = int64(1) << pairUnitBits
	// maxUnitPairs bounds a fixed-point sum: beyond 2³² pairs it could
	// overflow int64, so EvalState sums such a set in float64 (at that
	// scale the pair loop dominates anyway) and sampling draws no more.
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
// the scored match set, its pair loop's sum, and (lazily) each node's
// pair-loop contribution S(v) = Σ_w d(v,w), both in fixed-point units. A state
// produced for a parent instance lets every refinement child that shrinks
// the match set (Lemma 2 guarantees they all do) be re-scored from the
// difference instead of from scratch. States form a chain through base
// until their contributions are materialized; the zero value is not
// useful — obtain states from Diversity.EvalState or EvalDelta.
//
// A ScoreState is safe for concurrent use: materializing contributions
// writes each state of the chain under its own lock, once.
type ScoreState struct {
	mu        sync.Mutex
	matches   []graph.NodeID
	pairUnits int64
	// contrib[i] is S(matches[i]) in units; nil until materialized.
	contrib []int64
	// base/removed record the delta this state was derived by, consumed
	// (and released) when contrib is materialized.
	base    *ScoreState
	removed []graph.NodeID
}

// PairUnits exposes the pair loop's fixed-point sum for tests.
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

// score assembles δ from a relevance sum and a pair sum.
func (d *Diversity) score(rel, pairSum float64) float64 {
	norm := 0.0
	if d.LabelPopulation > 1 {
		norm = 2 * d.Lambda / float64(d.LabelPopulation-1)
	}
	return (1-d.Lambda)*rel + norm*pairSum
}

// scoreUnits assembles δ from a relevance sum, column sums and a
// fixed-point pair-loop sum.
func (d *Diversity) scoreUnits(rel, cols float64, units int64) float64 {
	return d.score(rel, cols+float64(units)/float64(pairUnitOne))
}

// EvalState computes δ and returns the reusable state backing subsequent
// EvalDelta calls. The column sums are exact at any size; the pair loop,
// when there is one, samples when the pair count exceeds MaxPairs and sums
// in float64 past the fixed-point overflow bound. Those two return a nil
// state — there is nothing sound to derive children from — and so does a
// call with no pair loop, whose children score from scratch as cheaply.
// matches must be sorted ascending (verification always produces sorted
// answers) and must not be mutated afterwards.
func (d *Diversity) EvalState(matches []graph.NodeID) (float64, *ScoreState) {
	n := len(matches)
	numPairs := int64(n) * int64(n-1) / 2
	rel, cols := d.relevanceSum(matches), d.columnSums(matches)
	switch {
	case d.Features != nil && len(d.Features.text) == 0: // no pair loop
		return d.score(rel, cols), nil
	case d.MaxPairs > 0 && numPairs > int64(d.MaxPairs):
		return d.score(rel, cols+d.samplePairs(matches, numPairs)), nil
	case numPairs > maxUnitPairs:
		dist, sum := d.caller(numPairs), 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				sum += dist(matches[i], matches[j])
			}
		}
		return d.score(rel, cols+sum), nil
	}
	st := &ScoreState{matches: matches, contrib: make([]int64, n)}
	for _, s := range d.split(numPairs, matches, (*Diversity).triangleShare) {
		st.pairUnits += s.units
		for i, u := range s.contrib {
			st.contrib[i] += u
		}
	}
	return d.scoreUnits(rel, cols, st.pairUnits), st
}

// triangleShare sums the pairs of the k-th of nw runs of rows of the
// i < j triangle, cut so the runs hold about equal pair counts, into its
// slot's pair units and S(v) partials.
func (d *Diversity) triangleShare(s *pairShare, m []graph.NodeID, k, nw int) {
	n := len(m)
	c := s.contrib
	if cap(c) < n {
		c = make([]int64, n)
	}
	c = c[:n]
	clear(c)
	dist, units := d.distFn(s.scr), int64(0)
	for i, end := rowCut(n, k, nw), rowCut(n, k+1, nw); i < end; i++ {
		for j := i + 1; j < n; j++ {
			u := pairUnits(dist(m[i], m[j]))
			units += u
			c[i] += u
			c[j] += u
		}
	}
	s.contrib, s.units = c, units
}

// rowCut returns the first row of the triangle over n nodes before which at
// least k/nw of its pairs lie.
func rowCut(n, k, nw int) int {
	target := int64(n) * int64(n-1) / 2 * int64(k) / int64(nw)
	r := 0
	for before := int64(0); before < target; r++ {
		before += int64(n - 1 - r)
	}
	return r
}

// EvalDelta computes δ for a child match set from a scored parent state,
// exploiting q_child(G) ⊆ q_parent(G): the child's pair-loop sum is the
// parent's minus the removed nodes' contributions, plus the removed-removed
// pairs subtracted twice (inclusion–exclusion). O(|removed|·depth + |removed|²)
// distance work instead of O(n²); the column sums take their one pass. The
// result — and the returned state — is bit-identical to EvalState on the
// same set, because both accumulate the same quantized units and integer
// addition is associative. ok reports false when the delta path does not
// apply (nil or sampled parent, not a subset, or a removal too large to
// beat recomputation); callers then fall back to EvalState.
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
		return d.scoreUnits(d.relevanceSum(matches), d.columnSums(matches), parent.pairUnits), parent, true
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
	units := parent.pairUnits
	for _, pi := range removedPos {
		units -= pc[pi]
	}
	for _, s := range d.split(int64(len(removed))*int64(len(removed)-1)/2, removed, (*Diversity).triangleShare) {
		units += s.units
	}
	st := &ScoreState{matches: matches, pairUnits: units, base: parent, removed: removed}
	return d.scoreUnits(d.relevanceSum(matches), d.columnSums(matches), units), st, true
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
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.contrib != nil {
		return s.contrib
	}
	base, bi := s.base.contribution(d), 0
	contrib := make([]int64, len(s.matches))
	for ci, v := range s.matches {
		for s.base.matches[bi] != v {
			bi++
		}
		contrib[ci] = base[bi]
		bi++
	}
	dist := d.caller(int64(len(s.removed)) * int64(len(s.matches)))
	for _, u := range s.removed {
		for ci, v := range s.matches {
			contrib[ci] -= pairUnits(dist(u, v))
		}
	}
	s.contrib, s.base, s.removed = contrib, nil, nil
	return s.contrib
}
