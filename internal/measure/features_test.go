package measure

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"fairsqg/internal/graph"
)

// attrDistance is the reference per-attribute distance the feature views
// compile down to: the oracle pinning DistanceFeatures to the
// straightforward AttrValue evaluation.
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

// referenceTupleDistance is the pre-compilation evaluation: per-pair
// AttrValue reads fed through the attrDistance oracle, a non-finite number
// read as Null, each span taken over the finite numbers of the active
// domain. DistanceFeatures must reproduce it bit-for-bit.
func referenceTupleDistance(g *graph.Graph, attrs []string) DistanceFunc {
	read := func(v graph.NodeID, id graph.AttrID) graph.Value {
		if id == graph.InvalidAttr {
			return graph.Null
		}
		x := g.AttrValue(v, id)
		if f := x.Float(); x.Kind() == graph.KindNumber && (math.IsNaN(f) || math.IsInf(f, 0)) {
			return graph.Null
		}
		return x
	}
	spans := make([]float64, len(attrs))
	ids := make([]graph.AttrID, len(attrs))
	for i, a := range attrs {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range g.ActiveDomain(a) {
			if f := x.Float(); x.Kind() == graph.KindNumber && finite(f) {
				lo, hi = min(lo, f), max(hi, f)
			}
		}
		if spans[i] = 1; hi > lo {
			spans[i] = hi - lo
		}
		ids[i] = g.AttrIDOf(a)
	}
	return func(v, w graph.NodeID) float64 {
		total := 0.0
		for i := range attrs {
			total += attrDistance(read(v, ids[i]), read(w, ids[i]), spans[i])
		}
		return total / float64(len(attrs))
	}
}

// featGraph exercises every feature-column code path: a small string
// domain (precomputed Levenshtein matrix), a long-tail string domain, a
// free-text domain past levMatrixCap at n ≥ 100 (on-demand kernel: short,
// > 64-byte, > 128-byte, non-ASCII and empty strings, the odd number),
// numbers, bools, and missing values of each kind.
func featGraph(t testing.TB, n int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	small := []string{"alpha", "beta", "gamma", "日本語", "delta"}
	g := graph.New()
	for i := 0; i < n; i++ {
		attrs := map[string]graph.Value{}
		if rng.Float64() < 0.85 {
			attrs["cat"] = graph.Str(small[rng.Intn(len(small))])
		}
		if rng.Float64() < 0.85 {
			attrs["name"] = graph.Str(fmt.Sprintf("node-%03d-%c", rng.Intn(200), 'a'+rune(rng.Intn(26))))
		}
		if rng.Float64() < 0.85 {
			attrs["score"] = graph.Num(rng.Float64() * 40)
		}
		if rng.Float64() < 0.85 {
			attrs["active"] = graph.Bool(rng.Intn(2) == 0)
		}
		switch k := rng.Intn(20); {
		case k == 0: // absent
		case k == 1:
			attrs["bio"] = graph.Str("")
		case k == 2:
			attrs["bio"] = graph.Int(int64(rng.Intn(3)))
		case k < 6:
			attrs["bio"] = graph.Str(fmt.Sprintf("%s — レビュー %d", small[rng.Intn(len(small))], i))
		case k < 10:
			attrs["bio"] = graph.Str(strings.Repeat("lorem ipsum ", 5+rng.Intn(12)) + fmt.Sprint(i))
		default:
			attrs["bio"] = graph.Str(fmt.Sprintf("the-%s-%s-%d", small[rng.Intn(3)], small[rng.Intn(3)], i))
		}
		if rng.Float64() < 0.2 { // mixed-kind attribute: sometimes string, sometimes number
			attrs["mixed"] = graph.Str("x")
		} else if rng.Float64() < 0.5 {
			attrs["mixed"] = graph.Int(int64(rng.Intn(3)))
		}
		if x := oddValues[i*7%len(oddValues)]; !x.IsNull() {
			attrs["odd"] = x
		}
		g.AddNode("P", attrs)
	}
	g.Freeze()
	return g
}

// oddValues are the edge cases of a numeric column, with the other kinds
// mixed in: non-finite numbers (which read as Null), both zeros, integers
// and fractions far apart.
var oddValues = []graph.Value{graph.Null, graph.Num(math.NaN()), graph.Num(math.Inf(1)), graph.Num(math.Inf(-1)),
	graph.Num(math.Copysign(0, -1)), graph.Int(0), graph.Int(1), graph.Int(-7), graph.Num(2.5), graph.Num(0.1),
	graph.Num(1e9), graph.Int(3), graph.Str("zero"), graph.Bool(true), graph.Bool(false)}

// TestDistanceFeaturesDifferential pins the compiled feature rows to the
// reference AttrValue evaluation over every pair of a mixed graph, bit for
// bit, through both entry points: the pooled public Distance and the
// row-sweeping form over caller-owned scratch that the pair loops use.
func TestDistanceFeaturesDifferential(t *testing.T) {
	attrs := []string{"cat", "name", "bio", "score", "active", "mixed", "odd"}
	for _, seed := range []int64{1, 2, 3} {
		g := featGraph(t, 130, seed)
		want := referenceTupleDistance(g, attrs)
		feats := NewDistanceFeatures(g, attrs)
		if bio := &feats.cols[2]; bio.nstr <= levMatrixCap || bio.mat != nil {
			t.Fatalf("seed %d: bio has %d distinct strings (matrix: %v), want a free-text column past the cap",
				seed, bio.nstr, bio.mat != nil)
		}
		got := feats.Distance
		scr := make([]levScratch, len(attrs))
		n := graph.NodeID(int32(g.NumNodes()))
		for v := graph.NodeID(0); v < n; v++ {
			for w := graph.NodeID(0); w < n; w++ {
				wd := want(v, w)
				if gd := got(v, w); gd != wd {
					t.Fatalf("seed %d: d(%d,%d) = %v, reference %v", seed, v, w, gd, wd)
				}
				if gd := feats.distance(scr, v, w); gd != wd {
					t.Fatalf("seed %d: row-swept d(%d,%d) = %v, reference %v", seed, v, w, gd, wd)
				}
			}
		}
	}
}

func TestDistanceFeaturesLevMatrix(t *testing.T) {
	g := featGraph(t, 60, 4)
	feats := NewDistanceFeatures(g, []string{"cat", "name"})
	// cat has ≤ 5 distinct values → matrix; name has ~dozens of long-tail
	// values, likely > levMatrixCap → no matrix. Assert at least the small
	// domain compiled one (the observable contract — identical distances —
	// is covered by the differential test).
	if feats.cols[0].mat == nil && feats.cols[0].nstr > 1 {
		t.Error("small string domain did not precompile a Levenshtein matrix")
	}
	if feats.cols[1].nstr > levMatrixCap && feats.cols[1].mat != nil {
		t.Error("large string domain precompiled a matrix past the cap")
	}
}

func TestDistanceFeaturesUnknownAttr(t *testing.T) {
	g := featGraph(t, 10, 5)
	d := TupleDistance(g, []string{"no-such-attr"})
	if got := d(0, 1); got != 0 {
		t.Errorf("unknown attribute distance = %v, want 0 (all-null column)", got)
	}
}

// compensatedPairSum is the oracle of the column sums: Σ_{v<w} d(v, w) over
// m with Neumaier's compensated summation.
func compensatedPairSum(d DistanceFunc, m []graph.NodeID) float64 {
	sum, comp := 0.0, 0.0
	for i := range m {
		for j := i + 1; j < len(m); j++ {
			x := d(m[i], m[j])
			t := sum + x
			if math.Abs(sum) >= math.Abs(x) {
				comp += (sum - t) + x
			} else {
				comp += (x - t) + sum
			}
			sum = t
		}
	}
	return sum + comp
}

// checkColumnSums compares the column sums of features without a free-text
// column against the compensated pair loop over Distance, within 1e-12
// relative.
func checkColumnSums(t *testing.T, f *DistanceFeatures, m []graph.NodeID) {
	t.Helper()
	if len(f.text) > 0 {
		t.Fatalf("%d free-text columns: their pairs are not in the column sums", len(f.text))
	}
	got := f.columnSums(m, new(colScratch))
	want := compensatedPairSum(f.Distance, m)
	if math.IsNaN(got) || math.Abs(got-want) > 1e-12*math.Abs(want) {
		t.Fatalf("%d nodes: column sums %v, pair loop %v", len(m), got, want)
	}
}

// TestColumnSumsOracle: every decomposable column kind — matrix-backed
// strings, fractional and integer numbers, bools, mixed kinds, non-finite
// numbers and both zeros, Null — sums by column to the pair loop's value,
// on answers of 1, 2, 3, 31–33 and 65 nodes and on the whole graph, through
// one scratch reused across them (histogram and sorted-rank paths both).
func TestColumnSumsOracle(t *testing.T) {
	attrs := []string{"cat", "score", "active", "mixed", "odd", "none"}
	for _, seed := range []int64{1, 2, 3} {
		g := featGraph(t, 400, seed)
		f := NewDistanceFeatures(g, attrs)
		rng := rand.New(rand.NewSource(seed))
		s := new(colScratch)
		for _, n := range []int{1, 2, 3, 31, 32, 33, 65, 400} {
			m := make([]graph.NodeID, 0, n)
			for _, v := range rng.Perm(g.NumNodes())[:n] {
				m = append(m, graph.NodeID(v))
			}
			slices.Sort(m)
			checkColumnSums(t, f, m)
			if got, want := f.columnSums(m, s), f.columnSums(m, new(colScratch)); got != want {
				t.Fatalf("seed %d, %d nodes: %v over reused scratch, %v over fresh", seed, n, got, want)
			}
		}
	}
}

// FuzzColumnSums: column sums ≡ the pair loop over fuzzed answers. Each
// node takes two bytes: one picks a number column's value among the edge
// cases (and a bool from its top bit), the other a string from a 64-value
// domain or another kind.
func FuzzColumnSums(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{1, 2, 3, 4, 5, 6})
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox jumps over the lazy dog!"))
	seed := make([]byte, 130)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		g := graph.New()
		n := min(len(data)/2, 80)
		for i := 0; i < n; i++ {
			a, b := data[2*i], data[2*i+1]
			attrs := map[string]graph.Value{"bit": graph.Bool(a >= 128)}
			if x := oddValues[int(a&127)%len(oddValues)]; !x.IsNull() {
				attrs["x"] = x
			}
			switch {
			case b < 192:
				attrs["s"] = graph.Str(fmt.Sprintf("%c-%d", 'a'+rune(b%5), b%64))
			case b < 224:
				attrs["s"] = graph.Int(int64(b % 3))
			case b < 240:
				attrs["s"] = graph.Bool(b%2 == 0)
			}
			g.AddNode("P", attrs)
		}
		g.Freeze()
		m := make([]graph.NodeID, n)
		for i := range m {
			m[i] = graph.NodeID(i)
		}
		checkColumnSums(t, NewDistanceFeatures(g, []string{"x", "s", "bit"}), m)
	})
}

// TestNonFiniteReadsAsNull: a NaN or infinite number loaded through
// ParseValue reads as Null in its own column — it neither poisons the other
// columns of the pair nor stretches the span the finite numbers share.
func TestNonFiniteReadsAsNull(t *testing.T) {
	for _, odd := range []string{"NaN", "+Inf", "-Inf"} {
		g := graph.New()
		for _, row := range [][2]string{{odd, "ant"}, {"1", "bee"}, {"3", "cat"}} {
			g.AddNode("P", map[string]graph.Value{"x": graph.ParseValue(row[0]), "s": graph.ParseValue(row[1])})
		}
		g.Freeze()
		f := NewDistanceFeatures(g, []string{"x", "s"})
		lev := func(a, b string) float64 { return NormalizedLevenshtein(a, b) }
		for _, c := range []struct {
			v, w graph.NodeID
			want float64
		}{
			{0, 1, (1 + lev("ant", "bee")) / 2}, // x: Null against 1
			{1, 2, (1 + lev("bee", "cat")) / 2}, // x: |1−3| over the span 2
		} {
			if got := f.Distance(c.v, c.w); got != c.want {
				t.Errorf("x = %s: d(%d,%d) = %v, want %v", odd, c.v, c.w, got, c.want)
			}
		}
		d := &Diversity{Lambda: 1, Relevance: ConstantRelevance(0), LabelPopulation: 3, Features: f}
		if got, want := d.Eval([]graph.NodeID{0, 1}), 2*f.Distance(0, 1)/2; got != want {
			t.Errorf("x = %s: δ({a,b}) = %v, want %v", odd, got, want)
		}
		checkColumnSums(t, NewDistanceFeatures(g, []string{"x", "s"}), []graph.NodeID{0, 1, 2})
	}
}

// TestColumnSumsAfterApply: the features of a mutated generation sum as a
// rebuild's do, bit for bit: the batch moves the span (a new maximum), adds
// and retires string and number values, writes a NaN and removes a node.
func TestColumnSumsAfterApply(t *testing.T) {
	g := featGraph(t, 200, 9)
	attrs := []string{"cat", "score", "active", "mixed", "odd"}
	live := graph.NewLive(g)
	defer live.Close()
	var batch []graph.Mutation
	for v := graph.NodeID(0); v < 60; v += 3 {
		batch = append(batch,
			graph.Mutation{Op: graph.MutSetAttr, Node: v, Attr: "score", Value: graph.Num(float64(v) * 1.5)},
			graph.Mutation{Op: graph.MutSetAttr, Node: v + 1, Attr: "cat", Value: graph.Str(fmt.Sprint("new-", v%4))},
			graph.Mutation{Op: graph.MutSetAttr, Node: v + 2, Attr: "odd", Value: graph.Num(math.NaN())})
	}
	batch = append(batch, graph.Mutation{Op: graph.MutSetAttr, Node: 70, Attr: "score", Value: graph.Num(500)},
		graph.Mutation{Op: graph.MutRemoveNode, Node: 71})
	if _, err := live.Apply(batch); err != nil {
		t.Fatal(err)
	}
	var m []graph.NodeID
	for v := graph.NodeID(0); v < 200; v++ {
		if v != 71 {
			m = append(m, v)
		}
	}
	answers := [][]graph.NodeID{m, m[:33], m[50:115]}
	applied := NewDistanceFeatures(live.Graph(), attrs)
	var got []float64
	for _, a := range answers {
		checkColumnSums(t, applied, a)
		got = append(got, applied.columnSums(a, new(colScratch)))
	}
	rebuilt, _ := live.Compact()
	f := NewDistanceFeatures(rebuilt, attrs)
	for i, a := range answers {
		if want := f.columnSums(a, new(colScratch)); got[i] != want {
			t.Errorf("answer %d: applied generation sums to %v, rebuild to %v", i, got[i], want)
		}
	}
}

// TestDiversityColumnsSameAtAnyProcs: δ over numbers, categories and free
// text — column sums on the caller, the title pairs split — is the same
// bits at GOMAXPROCS 1, 2 and 4, sampled and exact.
func TestDiversityColumnsSameAtAnyProcs(t *testing.T) {
	g, ids := titleGraph(t, 2000)
	feats := NewDistanceFeatures(g, titleAttrs)
	var want []float64
	for _, p := range []int{1, 2, 4} {
		var got []float64
		atProcs(p, func() {
			if runtime.GOMAXPROCS(0) != p {
				t.Fatalf("GOMAXPROCS %d not set", p)
			}
			for _, maxPairs := range []int{10000, 0} {
				d := &Diversity{Lambda: 0.5, Relevance: ConstantRelevance(1), LabelPopulation: len(ids),
					Features: feats, MaxPairs: maxPairs}
				got = append(got, d.Eval(ids), d.Eval(ids[:300]))
			}
		})
		if want == nil {
			want = got
		} else if !slices.Equal(got, want) {
			t.Errorf("GOMAXPROCS %d: δ %v, at 1 %v", p, got, want)
		}
	}
}

// TestFeaturesConcurrentFirstUse: goroutines compiling the features on a
// fresh generation at once — so its rows and their columns are built under
// their concurrent first use — get one shared set of columns and each
// evaluate every pair as the reference does. Run it under -race.
func TestFeaturesConcurrentFirstUse(t *testing.T) {
	attrs := []string{"cat", "name", "score", "mixed", "odd"}
	g := featGraph(t, 40, 6)
	want := referenceTupleDistance(featGraph(t, 40, 6), attrs)
	feats := make([]*DistanceFeatures, 4)
	var wg sync.WaitGroup
	for w := range feats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			feats[w] = NewDistanceFeatures(g, attrs)
			d := feats[w].Distance
			for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
				for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
					if d(v, u) != want(v, u) {
						t.Errorf("worker %d: d(%d,%d) = %v, reference %v", w, v, u, d(v, u), want(v, u))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for w, f := range feats[1:] {
		if !sameColumns(f, feats[0]) {
			t.Errorf("worker %d compiled its own columns", w+1)
		}
	}
}
