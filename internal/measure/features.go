package measure

import (
	"math"

	"fairsqg/internal/graph"
)

// levMatrixCap bounds the interned-string domain size for which a feature
// column precomputes the full pairwise normalized-Levenshtein matrix.
// Categorical attributes (genders, titles, genres) have tiny domains, so
// the matrix turns every string comparison in the O(n²) pair loop into one
// array read; large free-text domains run the bit-vector kernel on demand
// over the precomputed per-string lengths and ASCII flags.
const levMatrixCap = 64

// featureCol is one distance attribute's per-node feature row: a kind tag
// per node plus typed payloads. Numbers keep their raw value (the span
// division happens per pair, bit-identical to the reference attrDistance);
// strings are interned to dense IDs so equal strings compare by ID and
// small domains resolve through the precomputed matrix; bools keep their
// 0/1 payload for the equality fallback.
type featureCol struct {
	span  float64
	kinds []uint8 // graph.Kind per node; KindNull when absent
	nums  []float64
	strID []int32
	strs  []string  // interned string table
	info  []strInfo // rune length and ASCII flag per interned string
	mat   []float64 // pairwise normalized Levenshtein; nil when |strs| > levMatrixCap
}

// DistanceFeatures holds precompiled per-node feature rows for the default
// tuple distance over a frozen graph: one featureCol per distance
// attribute, materialized straight from the columnar storage at
// construction. The per-pair evaluation touches only these dense arrays —
// no AttrValue lookups, no rune counting — and is read-only afterwards, so
// one DistanceFeatures value may back any number of concurrent evaluators.
type DistanceFeatures struct {
	cols []featureCol
}

// NewDistanceFeatures compiles feature rows for the listed attributes (nil
// or empty means every attribute of g). The graph must be frozen.
func NewDistanceFeatures(g *graph.Graph, attrs []string) *DistanceFeatures {
	if len(attrs) == 0 {
		attrs = g.AttrNames()
	}
	n := g.NumNodes()
	f := &DistanceFeatures{cols: make([]featureCol, len(attrs))}
	for i, name := range attrs {
		c := &f.cols[i]
		c.span = domainSpan(g, name)
		c.kinds = make([]uint8, n)
		id := g.AttrIDOf(name)
		if id == graph.InvalidAttr {
			continue // every node reads Null: zero contribution, like the reference
		}
		interned := map[string]int32{}
		for v := 0; v < n; v++ {
			val := g.AttrValue(graph.NodeID(v), id)
			kind := val.Kind()
			c.kinds[v] = uint8(kind)
			switch kind {
			case graph.KindNumber, graph.KindBool:
				if c.nums == nil {
					c.nums = make([]float64, n)
				}
				c.nums[v] = val.Float()
			case graph.KindString:
				if c.strID == nil {
					c.strID = make([]int32, n)
				}
				s := val.Text()
				sid, ok := interned[s]
				if !ok {
					sid = int32(len(c.strs))
					c.strs = append(c.strs, s)
					c.info = append(c.info, infoOf(s))
					interned[s] = sid
				}
				c.strID[v] = sid
			}
		}
		if m := len(c.strs); m > 1 && m <= levMatrixCap {
			c.mat = make([]float64, m*m)
			var scr levScratch
			for a := 0; a < m; a++ {
				for b := a + 1; b < m; b++ {
					d := scr.normLev(c.strs[a], c.strs[b], c.info[a], c.info[b])
					c.mat[a*m+b] = d
					c.mat[b*m+a] = d
				}
			}
		}
	}
	return f
}

// Bytes is the size of the feature rows (an interned string at 40 bytes),
// for whoever keeps them around.
func (f *DistanceFeatures) Bytes() (n int64) {
	for i := range f.cols {
		c := &f.cols[i]
		n += int64(len(c.kinds) + 8*len(c.nums) + 4*len(c.strID) + 8*len(c.mat) + 40*len(c.strs))
	}
	return n
}

// domainSpan computes the numeric active-domain span exactly like the
// original TupleDistance closure did: max − min over the attribute's
// numeric values, or 1 when fewer than two distinct numbers occur.
func domainSpan(g *graph.Graph, attr string) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range g.ActiveDomain(attr) {
		if v.Kind() == graph.KindNumber {
			f := v.Float()
			if f < lo {
				lo = f
			}
			if f > hi {
				hi = f
			}
		}
	}
	if hi > lo {
		return hi - lo
	}
	return 1
}

// Distance evaluates the tuple distance d(v, w) from the feature rows. The
// result is bit-identical to the reference per-pair attrDistance over
// AttrValue reads: the same null/number/string/fallback case analysis, the
// same span division and clamp, the same Levenshtein values. Safe for
// concurrent use: free-text pairs borrow pooled kernel scratch.
func (f *DistanceFeatures) Distance(v, w graph.NodeID) float64 {
	return f.distance(nil, v, w)
}

// distance is Distance over caller-owned kernel scratch, one levScratch per
// column (nil borrows from the pool per free-text pair). Each column's
// scratch keeps v's string compiled, so a loop that holds v fixed and
// sweeps w builds the bit-vector match masks once per row, not per pair.
func (f *DistanceFeatures) distance(scr []levScratch, v, w graph.NodeID) float64 {
	if len(f.cols) == 0 {
		return 0
	}
	total := 0.0
	for i := range f.cols {
		c := &f.cols[i]
		ka, kb := graph.Kind(c.kinds[v]), graph.Kind(c.kinds[w])
		switch {
		case ka == graph.KindNull && kb == graph.KindNull:
			// both absent: identical
		case ka == graph.KindNull || kb == graph.KindNull:
			total++
		case ka == graph.KindNumber && kb == graph.KindNumber:
			d := math.Abs(c.nums[v]-c.nums[w]) / c.span
			if d > 1 {
				d = 1
			}
			total += d
		case ka == graph.KindString && kb == graph.KindString:
			a, b := c.strID[v], c.strID[w]
			if a == b {
				break // equal strings: distance 0, no Levenshtein
			}
			switch {
			case c.mat != nil:
				total += c.mat[int(a)*len(c.strs)+int(b)]
			case scr != nil:
				total += scr[i].normLev(c.strs[a], c.strs[b], c.info[a], c.info[b])
			default:
				s := levPool.Get().(*levScratch)
				total += s.normLev(c.strs[a], c.strs[b], c.info[a], c.info[b])
				levPool.Put(s)
			}
		default:
			// Mixed kinds never compare equal; two bools compare by payload.
			if ka != kb || c.nums[v] != c.nums[w] {
				total++
			}
		}
	}
	return total / float64(len(f.cols))
}

// Func adapts the features to the DistanceFunc interface (a closure over
// distance rather than the Distance method value: one call shallower on a
// 12 ns function).
func (f *DistanceFeatures) Func() DistanceFunc {
	return func(v, w graph.NodeID) float64 { return f.distance(nil, v, w) }
}
