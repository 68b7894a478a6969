package measure

import (
	"math"
	"slices"
	"sort"
	"unsafe"

	"fairsqg/internal/graph"
)

// levMatrixCap bounds the interned-string domain size for which a feature
// column precomputes the full pairwise normalized-Levenshtein matrix.
// Categorical attributes (genders, titles, genres) have tiny domains, so
// the matrix turns every string comparison into one array read and lets
// the column sum from a histogram; larger domains are free text, which
// runs the bit-vector kernel on demand over the precomputed per-string
// lengths and ASCII flags, in the pair loops: it does not decompose.
const levMatrixCap = 64

// featureCol is one distance attribute's view of its graph.AttrRow: kinds
// and ids, indexed by a node's domain entry + 1 (0 is absent), give its kind
// tag and int32 payload. A number's payload is its rank among the column's
// distinct finite numbers (vals), a bool's 0 or 1, a string's its domain
// entry in a free-text column, its rank by first holder in one that fits a
// matrix. A non-finite number reads as Null: it has no place on the span's
// scale.
type featureCol struct {
	span  float64
	row   graph.Table[int32] // the generation's AttrRow IDs
	kinds []uint8            // graph.Kind per domain entry + 1; KindNull when absent or non-finite
	ids   []int32            // payload per domain entry + 1
	vals  []float64          // distinct finite numbers, ascending
	dom   []graph.Value      // the active domain, the free-text strings' table
	nstr  int                // distinct strings
	info  []strInfo          // rune length and ASCII flag per free-text ID; nil for a matrix column
	mat   []float64          // pairwise normalized Levenshtein; nil when nstr < 2 or > levMatrixCap
}

// DistanceFeatures holds the default tuple distance's views over a frozen
// graph's AttrRows, one per distance attribute the graph knows (an unknown
// one reads Null everywhere and adds nothing). The per-pair evaluation
// touches only dense arrays and is read-only, so one DistanceFeatures value
// may back any number of concurrent evaluators.
type DistanceFeatures struct {
	cols []featureCol
	n    float64 // number of distance attributes, the known and the unknown
	// text holds copies of the free-text columns, the ones Diversity's pair
	// loops sum; the others sum by column (pairSum). nil when there are none.
	text []featureCol
}

// NewDistanceFeatures composes views for the listed attributes (nil or empty
// means every attribute of g). The graph must be frozen. It allocates per
// attribute only: each column is compiled once per generation, on first use,
// and kept beside its row (graph.AttrRow.Memo), like the row itself.
func NewDistanceFeatures(g *graph.Graph, attrs []string) *DistanceFeatures {
	if len(attrs) == 0 {
		attrs = g.AttrNames()
	}
	f := &DistanceFeatures{n: float64(len(attrs)), cols: make([]featureCol, 0, len(attrs))}
	for _, name := range attrs {
		id := g.AttrIDOf(name)
		if id == graph.InvalidAttr {
			continue
		}
		row := g.AttrRow(id)
		c := row.Memo(featureKey{}, func() any { return newFeatureCol(g.ActiveDomainByID(id), row) }).(*featureCol)
		if c.nstr > levMatrixCap {
			f.text = append(f.text, *c)
		}
		f.cols = append(f.cols, *c)
	}
	return f
}

type featureKey struct{} // names the distance columns as owner of a row's memo

// newFeatureCol compiles one attribute's column, per active-domain entry.
func newFeatureCol(dom []graph.Value, row *graph.AttrRow) *featureCol {
	c := &featureCol{row: row.IDs, dom: dom, kinds: make([]uint8, len(dom)+1), ids: make([]int32, len(dom)+1)}
	c.vals, c.span = finiteNumbers(dom)
	var strs []int // the string entries, up to the matrix cap
	for i, x := range dom {
		switch kind := x.Kind(); {
		case kind == graph.KindNumber && finite(x.Float()):
			c.kinds[i+1], c.ids[i+1] = uint8(kind), int32(sort.SearchFloat64s(c.vals, x.Float()))
		case kind == graph.KindBool:
			c.kinds[i+1], c.ids[i+1] = uint8(kind), int32(x.Float())
		case kind == graph.KindString:
			c.kinds[i+1], c.ids[i+1] = uint8(kind), int32(i)
			if c.nstr++; c.nstr <= levMatrixCap {
				strs = append(strs, i)
			}
		}
	}
	if c.nstr > levMatrixCap {
		c.info = make([]strInfo, len(dom))
		for i, x := range dom {
			c.info[i] = infoOf(x.Text())
		}
	} else {
		c.matrix(strs, row.First)
	}
	return c
}

// matrix renumbers a small string domain's entries by first holder — the
// order pairSum adds the matrix terms in — and fills the pairwise matrix.
func (c *featureCol) matrix(strs []int, first []graph.NodeID) {
	slices.SortFunc(strs, func(a, b int) int { return int(first[a] - first[b]) })
	m := len(strs)
	if m > 1 {
		c.mat = make([]float64, m*m)
	}
	var scr levScratch
	for a, i := range strs {
		c.ids[i+1] = int32(a)
		for b := a + 1; b < m; b++ {
			x, y := c.dom[i].Text(), c.dom[strs[b]].Text()
			c.mat[a*m+b] = scr.normLev(x, y, infoOf(x), infoOf(y))
			c.mat[b*m+a] = c.mat[a*m+b]
		}
	}
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// finiteNumbers returns the distinct finite numbers of an active domain,
// ascending, and their span: max − min, or 1 when fewer than two.
func finiteNumbers(dom []graph.Value) (vals []float64, span float64) {
	for _, x := range dom {
		if x.Kind() == graph.KindNumber && finite(x.Float()) {
			vals = append(vals, x.Float())
		}
	}
	if span = 1; len(vals) > 1 {
		span = vals[len(vals)-1] - vals[0]
	}
	return vals, span
}

// Bytes is what the features hold themselves, a header per column: the rest is the graph's.
func (f *DistanceFeatures) Bytes() int64 {
	return int64(cap(f.cols)+cap(f.text)) * int64(unsafe.Sizeof(featureCol{}))
}

// Distance evaluates the tuple distance d(v, w) from the feature rows. The
// result is bit-identical to the reference per-pair attrDistance over
// AttrValue reads, a non-finite number read as Null: the same case
// analysis, the same span division and clamp, the same Levenshtein values.
// Safe for concurrent use: free-text pairs borrow pooled kernel scratch.
func (f *DistanceFeatures) Distance(v, w graph.NodeID) float64 {
	return f.distance(nil, v, w)
}

// distance is Distance over caller-owned kernel scratch, one levScratch per
// column (nil borrows from the pool per free-text pair).
func (f *DistanceFeatures) distance(scr []levScratch, v, w graph.NodeID) float64 {
	if f.n == 0 {
		return 0
	}
	return terms(f.cols, scr, v, w) / f.n
}

// textDistance is the free-text columns' share of d(v, w), over one
// levScratch per text column. Each column's scratch keeps v's string
// compiled, so a loop that holds v fixed and sweeps w builds the
// bit-vector match masks once per row, not per pair.
func (f *DistanceFeatures) textDistance(scr []levScratch, v, w graph.NodeID) float64 {
	return terms(f.text, scr, v, w) / f.n
}

// terms sums the columns' per-attribute distances of one pair.
func terms(cols []featureCol, scr []levScratch, v, w graph.NodeID) float64 {
	total := 0.0
	for i := range cols {
		c := &cols[i]
		ra, rb := c.row.At(int(v))+1, c.row.At(int(w))+1
		ka, kb := graph.Kind(c.kinds[ra]), graph.Kind(c.kinds[rb])
		switch {
		case ka == graph.KindNull && kb == graph.KindNull:
			// both absent: identical
		case ka == graph.KindNull || kb == graph.KindNull:
			total++
		case ka == graph.KindNumber && kb == graph.KindNumber:
			d := math.Abs(c.vals[c.ids[ra]]-c.vals[c.ids[rb]]) / c.span
			if d > 1 {
				d = 1
			}
			total += d
		case ka == graph.KindString && kb == graph.KindString:
			a, b := c.ids[ra], c.ids[rb]
			if a == b {
				break // equal strings: distance 0, no Levenshtein
			}
			switch {
			case c.mat != nil:
				total += c.mat[int(a)*c.nstr+int(b)]
			case scr != nil:
				total += scr[i].normLev(c.dom[a].Text(), c.dom[b].Text(), c.info[a], c.info[b])
			default:
				s := levPool.Get().(*levScratch)
				total += s.normLev(c.dom[a].Text(), c.dom[b].Text(), c.info[a], c.info[b])
				levPool.Put(s)
			}
		default:
			// Mixed kinds never compare equal; two bools compare by payload.
			if ka != kb || c.ids[ra] != c.ids[rb] {
				total++
			}
		}
	}
	return total
}

// Func adapts the features to the DistanceFunc interface (a closure over
// distance rather than the Distance method value: one call shallower on a
// 12 ns function).
func (f *DistanceFeatures) Func() DistanceFunc {
	return func(v, w graph.NodeID) float64 { return f.distance(nil, v, w) }
}

// colScratch is the column sums' reusable state; its histograms are all
// zero between calls.
type colScratch struct {
	ranks []int32
	hist  []int64
	strs  [levMatrixCap]int64
}

// columnSums returns Σ_{v<w} d(v, w) over m for the columns that decompose
// (all but free text), adding one column's sum at a time in a fixed order
// on the caller, so its bits are a function of the set alone.
func (f *DistanceFeatures) columnSums(m []graph.NodeID, s *colScratch) float64 {
	if len(m) < 2 || len(f.text) == len(f.cols) {
		return 0
	}
	sum := 0.0
	for i := range f.cols {
		if c := &f.cols[i]; c.nstr <= levMatrixCap {
			sum += c.pairSum(m, s)
		}
	}
	return sum / f.n
}

// pairSum is one decomposable column's Σ_{v<w} of its term over m (DESIGN
// §5c, "δ by column"): cross-kind pairs count 1, bools #true·#false,
// numbers Σ|x−y|/span over the gaps between consecutive values (the clamp
// never fires: span covers the column), matrix-backed strings
// Σ_{a<b} h_a·h_b·mat[a][b] over the answer's histogram h.
func (c *featureCol) pairSum(m []graph.NodeID, s *colScratch) float64 {
	// Numbers count into a histogram over the column's ranks, unless the
	// column has far more distinct values than the answer has nodes.
	byHist := len(c.vals) <= 4*len(m)
	if byHist && len(s.hist) < len(c.vals) {
		s.hist = make([]int64, len(c.vals))
	}
	var byKind [graph.KindString + 1]int64
	trues, ranks := int64(0), s.ranks[:0]
	for _, v := range m {
		r := c.row.At(int(v)) + 1
		k, id := graph.Kind(c.kinds[r]), c.ids[r]
		byKind[k]++
		switch {
		case k == graph.KindBool:
			trues += int64(id)
		case k == graph.KindNumber && byHist:
			s.hist[id]++
		case k == graph.KindNumber:
			ranks = append(ranks, id)
		case k == graph.KindString:
			s.strs[id]++
		}
	}
	s.ranks = ranks
	n := int64(len(m))
	ones := n*(n-1)/2 + trues*(byKind[graph.KindBool]-trues)
	for _, k := range byKind {
		ones -= k * (k - 1) / 2
	}
	g := gapSum{vals: c.vals, n: byKind[graph.KindNumber]}
	if byHist {
		for r, k := range s.hist[:len(c.vals)] {
			if k > 0 {
				g.add(r, k)
				s.hist[r] = 0
			}
		}
	} else {
		slices.Sort(ranks)
		for _, r := range ranks {
			g.add(int(r), 1)
		}
	}
	sum := float64(ones) + g.sum/c.span
	if k := c.nstr; byKind[graph.KindString] > 0 {
		h := s.strs[:k]
		for a, ha := range h {
			for b := a + 1; b < k && ha > 0; b++ {
				sum += float64(ha*h[b]) * c.mat[a*k+b]
			}
		}
		clear(h)
	}
	return sum
}

// gapSum accumulates Σ|x−y| over n values fed in ascending order: the gap
// between two consecutive values is crossed by (#below)·(#above) pairs.
// No term is negative, so nothing cancels, and on integers every term and
// partial sum is exact below 2⁵³.
type gapSum struct {
	vals      []float64
	n, below  int64
	prev, sum float64
}

func (g *gapSum) add(r int, count int64) {
	if g.below > 0 {
		g.sum += (g.vals[r] - g.prev) * float64(g.below*(g.n-g.below))
	}
	g.below += count
	g.prev = g.vals[r]
}
