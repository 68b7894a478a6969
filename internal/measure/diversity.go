package measure

import (
	"math"
	"math/bits"

	"fairsqg/internal/graph"
)

// RelevanceFunc scores the relevance r(u_o, v) of a match in [0,1].
type RelevanceFunc func(v graph.NodeID) float64

// DistanceFunc scores the dissimilarity d(v, v') of two matches in [0,1].
type DistanceFunc func(v, w graph.NodeID) float64

// ConstantRelevance treats every match as equally relevant with score c.
func ConstantRelevance(c float64) RelevanceFunc {
	return func(graph.NodeID) float64 { return c }
}

// DegreeRelevance scores a match by its total degree normalized by the
// maximum degree observed among nodes with the given label — a stand-in for
// the social-impact relevance the paper cites. Returns a constant 1 scorer
// when the label has no edges.
func DegreeRelevance(g *graph.Graph, label string) RelevanceFunc {
	maxDeg := 0
	for _, v := range g.NodesByLabel(label) {
		if d := g.OutDegree(v) + g.InDegree(v); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg == 0 {
		return ConstantRelevance(1)
	}
	md := float64(maxDeg)
	return func(v graph.NodeID) float64 {
		return float64(g.OutDegree(v)+g.InDegree(v)) / md
	}
}

// TupleDistance builds the paper's default pairwise distance: the
// normalized edit distance between the attribute tuples T(v) and T(v'),
// averaged over the listed attributes. String attributes use normalized
// Levenshtein distance; numeric attributes use |a-b| scaled by the
// attribute's active-domain span. Missing values count as maximally
// distant from present ones and identical to each other.
func TupleDistance(g *graph.Graph, attrs []string) DistanceFunc {
	return NewDistanceFeatures(g, attrs).Func()
}

// attrDistance is the reference per-attribute distance the feature rows
// compile down to; it is retained as the oracle for the differential test
// pinning DistanceFeatures to the straightforward AttrValue evaluation.
func attrDistance(a, b graph.Value, span float64) float64 {
	switch {
	case a.IsNull() && b.IsNull():
		return 0
	case a.IsNull() || b.IsNull():
		return 1
	case a.Kind() == graph.KindNumber && b.Kind() == graph.KindNumber:
		d := math.Abs(a.Float()-b.Float()) / span
		if d > 1 {
			d = 1
		}
		return d
	case a.Kind() == graph.KindString && b.Kind() == graph.KindString:
		return NormalizedLevenshtein(a.Text(), b.Text())
	default:
		if a.Equal(b) {
			return 0
		}
		return 1
	}
}

// Diversity evaluates the max-sum diversity objective
//
//	δ(q, G) = (1−λ) Σ_{v∈q(G)} r(u_o, v) + 2λ/(|V_{u_o}|−1) Σ_{v<v'} d(v, v')
//
// over a match set. |V_{u_o}| is the population of the output label, which
// normalizes the pairwise term so that δ(q, G) ∈ [0, |V_{u_o}|].
//
// A Diversity counts its pair evaluations and owns kernel scratch, so it
// serves one goroutine at a time; concurrent evaluators each take their
// own value over the same (read-only) Features.
type Diversity struct {
	// Lambda balances relevance (0) against dissimilarity (1).
	Lambda float64
	// Relevance is r(u_o, ·); required.
	Relevance RelevanceFunc
	// Distance is d(·,·); required unless Features is set.
	Distance DistanceFunc
	// Features, when set, is the default tuple distance evaluated in place
	// of Distance: the pair loops call the compiled feature rows directly
	// and keep each row's fixed string compiled for the bit-vector kernel,
	// which a DistanceFunc closure cannot do.
	Features *DistanceFeatures
	// LabelPopulation is |V_{u_o}|.
	LabelPopulation int
	// MaxPairs caps the number of pairwise distance evaluations per call.
	// When the match set induces more pairs, the pairwise sum is estimated
	// from a deterministic sample and scaled; 0 means always exact.
	MaxPairs int

	scratch   []levScratch // one per Features column
	pairEvals int64
}

// PairEvals returns the number of pairwise distances evaluated so far,
// counted once per scoring call from the loop bounds.
func (d *Diversity) PairEvals() int64 { return d.pairEvals }

// Clone returns an evaluator over the same functions and features with its
// own scratch and a zero pair count, for use on another goroutine.
func (d *Diversity) Clone() *Diversity {
	c := *d
	c.scratch, c.pairEvals = nil, 0
	return &c
}

// pairFn opens one scoring call: it counts the call's pairs and returns
// d(·,·) for its loops — Distance, or the Features rows over this
// evaluator's scratch. Loops hold the first argument fixed and sweep the
// second, so the scratch keeps the fixed node's strings compiled.
func (d *Diversity) pairFn(pairs int64) DistanceFunc {
	d.pairEvals += pairs
	f := d.Features
	if f == nil {
		return d.Distance
	}
	if d.scratch == nil {
		d.scratch = make([]levScratch, len(f.cols))
	}
	scr := d.scratch
	return func(v, w graph.NodeID) float64 { return f.distance(scr, v, w) }
}

// Eval computes δ for the given match set.
func (d *Diversity) Eval(matches []graph.NodeID) float64 {
	rel := 0.0
	for _, v := range matches {
		rel += d.Relevance(v)
	}
	n := len(matches)
	pairSum := 0.0
	numPairs := n * (n - 1) / 2
	if numPairs > 0 {
		if d.MaxPairs > 0 && numPairs > d.MaxPairs {
			pairSum = d.samplePairs(matches, numPairs)
		} else {
			dist := d.pairFn(int64(numPairs))
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					pairSum += dist(matches[i], matches[j])
				}
			}
		}
	}
	norm := 0.0
	if d.LabelPopulation > 1 {
		norm = 2 * d.Lambda / float64(d.LabelPopulation-1)
	}
	return (1-d.Lambda)*rel + norm*pairSum
}

// samplePairs estimates the pairwise sum from MaxPairs deterministically
// chosen pairs (splitmix64 stream seeded by the set size) scaled to the
// full pair count. Determinism keeps benchmark runs reproducible. Indexes
// are drawn with Lemire's multiply-shift rejection, so every index is
// exactly uniform — the earlier next()%n draw was biased toward small
// indexes whenever n did not divide 2⁶⁴.
func (d *Diversity) samplePairs(matches []graph.NodeID, numPairs int) float64 {
	n := len(matches)
	state := uint64(n)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	next := func() uint64 {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	dist := d.pairFn(int64(d.MaxPairs))
	sum := 0.0
	for k := 0; k < d.MaxPairs; k++ {
		i := int(boundedUint(next, uint64(n)))
		j := int(boundedUint(next, uint64(n-1)))
		if j >= i {
			j++
		}
		sum += dist(matches[i], matches[j])
	}
	return sum / float64(d.MaxPairs) * float64(numPairs)
}

// boundedUint maps draws from next onto [0, n) without modulo bias using
// Lemire's multiply-shift reduction: the high 64 bits of draw·n are
// uniform once draws landing in the short first interval (low bits below
// 2⁶⁴ mod n) are rejected. The rejection loop consumes a deterministic
// number of extra draws for a given stream, preserving reproducibility.
func boundedUint(next func() uint64, n uint64) uint64 {
	hi, lo := bits.Mul64(next(), n)
	if lo < n {
		threshold := -n % n
		for lo < threshold {
			hi, lo = bits.Mul64(next(), n)
		}
	}
	return hi
}

// MaxValue returns the upper bound of δ for this configuration, |V_{u_o}|,
// used to normalize indicators and size the ε-box grid.
func (d *Diversity) MaxValue() float64 { return float64(d.LabelPopulation) }
