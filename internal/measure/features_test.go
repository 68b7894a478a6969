package measure

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fairsqg/internal/graph"
)

// referenceTupleDistance is the pre-compilation evaluation: per-pair
// AttrValue reads fed through the attrDistance oracle. DistanceFeatures
// must reproduce it bit-for-bit.
func referenceTupleDistance(g *graph.Graph, attrs []string) DistanceFunc {
	spans := make([]float64, len(attrs))
	ids := make([]graph.AttrID, len(attrs))
	for i, a := range attrs {
		spans[i] = domainSpan(g, a)
		ids[i] = g.AttrIDOf(a)
	}
	return func(v, w graph.NodeID) float64 {
		total := 0.0
		for i := range attrs {
			var av, wv graph.Value
			if ids[i] != graph.InvalidAttr {
				av = g.AttrValue(v, ids[i])
				wv = g.AttrValue(w, ids[i])
			}
			total += attrDistance(av, wv, spans[i])
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
		g.AddNode("P", attrs)
	}
	g.Freeze()
	return g
}

// TestDistanceFeaturesDifferential pins the compiled feature rows to the
// reference AttrValue evaluation over every pair of a mixed graph, bit for
// bit, through both entry points: the pooled public Distance and the
// row-sweeping form over caller-owned scratch that the pair loops use.
func TestDistanceFeaturesDifferential(t *testing.T) {
	attrs := []string{"cat", "name", "bio", "score", "active", "mixed"}
	for _, seed := range []int64{1, 2, 3} {
		g := featGraph(t, 130, seed)
		want := referenceTupleDistance(g, attrs)
		feats := NewDistanceFeatures(g, attrs)
		if bio := &feats.cols[2]; len(bio.strs) <= levMatrixCap || bio.mat != nil {
			t.Fatalf("seed %d: bio has %d distinct strings (matrix: %v), want a free-text column past the cap",
				seed, len(bio.strs), bio.mat != nil)
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
	if feats.cols[0].mat == nil && len(feats.cols[0].strs) > 1 {
		t.Error("small string domain did not precompile a Levenshtein matrix")
	}
	if len(feats.cols[1].strs) > levMatrixCap && feats.cols[1].mat != nil {
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
