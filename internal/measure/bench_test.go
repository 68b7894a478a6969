package measure

import (
	"fmt"
	"math/rand"
	"testing"

	"fairsqg/internal/gen"
	"fairsqg/internal/graph"
)

func benchGraph(tb testing.TB, n int) (*graph.Graph, []graph.NodeID) {
	tb.Helper()
	g := graph.New()
	majors := []string{"cs", "math", "bio", "econ", "art", "law", "med", "phys"}
	ids := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = g.AddNode("P", map[string]graph.Value{
			"major": graph.Str(majors[i%len(majors)]),
			"exp":   graph.Int(int64(i % 30)),
		})
	}
	g.Freeze()
	return g, ids
}

// titleGraph is a DBP-like Movie population: a free-text title unique to
// nearly every node ("the-" plus three syllables, 10–14 bytes), so the
// string column is far past levMatrixCap and every pair runs the kernel,
// next to a categorical genre and two numbers.
func titleGraph(tb testing.TB, n int) (*graph.Graph, []graph.NodeID) {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	syllables := []string{"ka", "lo", "mi", "ren", "sta", "vor", "qu", "zen", "tha", "bri", "ol", "und"}
	genres := []string{"drama", "comedy", "action", "horror", "romance", "thriller"}
	g := graph.New()
	ids := make([]graph.NodeID, n)
	for i := range ids {
		title := "the-"
		for k := 0; k < 3; k++ {
			title += syllables[rng.Intn(len(syllables))]
		}
		ids[i] = g.AddNode("Movie", map[string]graph.Value{
			"title":  graph.Str(title),
			"genre":  graph.Str(genres[rng.Intn(len(genres))]),
			"rating": graph.Num(float64(rng.Intn(80)) / 10),
			"year":   graph.Int(int64(1950 + rng.Intn(73))),
		})
	}
	g.Freeze()
	return g, ids
}

var titleAttrs = []string{"genre", "rating", "year", "title"}

var benchSink int

// BenchmarkLevenshtein sweeps the public function over string lengths on
// both sides of the one-word boundary, ASCII (bit-vector kernel) and
// non-ASCII (rune DP).
func BenchmarkLevenshtein(b *testing.B) {
	for _, alphabet := range []struct {
		name  string
		runes []rune
	}{{"ascii", []rune("abcdefghijklmnop-")}, {"nonascii", []rune("abcdefghijklmnopé日")}} {
		for _, n := range []int{8, 16, 64, 65, 200} {
			rng := rand.New(rand.NewSource(int64(n)))
			x, y := randString(rng, n, alphabet.runes), randString(rng, n, alphabet.runes)
			b.Run(fmt.Sprintf("%s/%d", alphabet.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					benchSink += Levenshtein(x, y)
				}
			})
		}
	}
}

func BenchmarkTupleDistance(b *testing.B) {
	b.Run("categorical", func(b *testing.B) {
		g, ids := benchGraph(b, 1000)
		d := TupleDistance(g, []string{"major", "exp"})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d(ids[i%1000], ids[(i*7)%1000])
		}
	})
	b.Run("freetext", func(b *testing.B) {
		g, ids := titleGraph(b, 1000)
		d := TupleDistance(g, titleAttrs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d(ids[i%1000], ids[(i*7)%1000])
		}
	})
}

func BenchmarkDiversityExact(b *testing.B) {
	g, ids := benchGraph(b, 400)
	div := &Diversity{
		Lambda:          0.5,
		Relevance:       ConstantRelevance(1),
		Distance:        TupleDistance(g, []string{"major", "exp"}),
		LabelPopulation: 400,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		div.Eval(ids)
	}
}

// BenchmarkDiversity sweeps re-scoring a refined (subset) match set across
// set sizes and overlap fractions: "exact" recomputes the child's pair loop
// from scratch (the pre-incremental behaviour), "delta" derives it from the
// parent's state through EvalDelta. Both paths produce bit-identical
// scores; the sweep measures the speedup the subset-delta path buys.
func BenchmarkDiversity(b *testing.B) {
	for _, n := range []int{300, 1000, 3000} {
		g, ids := benchGraph(b, n)
		div := &Diversity{
			Lambda:          0.5,
			Relevance:       ConstantRelevance(1),
			Distance:        TupleDistance(g, []string{"major", "exp"}),
			LabelPopulation: n,
		}
		for _, overlapPct := range []int{90, 70} {
			// Child keeps overlapPct% of the parent: drop every k-th node.
			drop := 100 / (100 - overlapPct)
			var child []graph.NodeID
			for i, v := range ids {
				if i%drop == 0 {
					continue
				}
				child = append(child, v)
			}
			_, parent := div.EvalState(ids)
			parent.contribution(div) // steady state: contributions materialized
			name := func(kind string) string {
				return fmt.Sprintf("%s/n=%d/overlap=%d", kind, n, overlapPct)
			}
			b.Run(name("exact"), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, st := div.EvalState(child); st == nil {
						b.Fatal("sampled")
					}
				}
			})
			b.Run(name("delta"), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, ok := div.EvalDelta(parent, child); !ok {
						b.Fatal("delta rejected")
					}
				}
			})
		}
	}
	// The exact loop as runners bind it, on Features, where it may split:
	// categorical (matrix and numbers, ≈ 15 ns a pair) and free text (the
	// edit-distance kernel, ≈ 100 ns).
	fixtures := []struct {
		name  string
		build func(testing.TB, int) (*graph.Graph, []graph.NodeID)
		attrs []string
	}{{"categorical", benchGraph, []string{"major", "exp"}}, {"freetext", titleGraph, titleAttrs}}
	for _, n := range []int{300, 1000} {
		for _, fx := range fixtures {
			g, ids := fx.build(b, n)
			div := &Diversity{Lambda: 0.5, Relevance: ConstantRelevance(1), LabelPopulation: n,
				Features: NewDistanceFeatures(g, fx.attrs)}
			b.Run(fmt.Sprintf("features/%s/n=%d", fx.name, n), func(b *testing.B) {
				before := div.Splits()
				for i := 0; i < b.N; i++ {
					div.EvalState(ids)
				}
				b.ReportMetric(float64(div.Splits()-before)/float64(b.N), "splits/op")
			})
		}
	}
}

func BenchmarkDiversitySampled(b *testing.B) {
	b.Run("categorical", func(b *testing.B) {
		g, ids := benchGraph(b, 400)
		div := &Diversity{
			Lambda:          0.5,
			Relevance:       ConstantRelevance(1),
			Distance:        TupleDistance(g, []string{"major", "exp"}),
			LabelPopulation: 400,
			MaxPairs:        5000,
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			div.Eval(ids)
		}
	})
	// The gen-score shape: thousands of answers, 10 000 sampled pairs, the
	// tuple distance bound directly as runners bind it.
	b.Run("freetext", func(b *testing.B) {
		g, ids := titleGraph(b, 2000)
		div := &Diversity{
			Lambda:          0.5,
			Relevance:       ConstantRelevance(1),
			Features:        NewDistanceFeatures(g, titleAttrs),
			LabelPopulation: 2000,
			MaxPairs:        10000,
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			div.Eval(ids)
		}
	})
}

// BenchmarkNewDistanceFeatures composes a run's distance features on a
// generation that already served them once, over every attribute (the CLI's
// default, free-text DBP title and LKI name included), at the benchmark
// workloads' sizes: 8,000-node DBP and 15,000-node LKI. Run it with
// -benchmem: B/op is what each run pays for its features.
func BenchmarkNewDistanceFeatures(b *testing.B) {
	for _, ds := range []struct {
		name  string
		build func(gen.Options) *graph.Graph
		nodes int
	}{{"dbp", gen.BuildDBP, 8000}, {"lki", gen.BuildLKI, 15000}} {
		g := ds.build(gen.Options{Nodes: ds.nodes, Seed: 1})
		b.Run(ds.name, func(b *testing.B) {
			NewDistanceFeatures(g, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += len(NewDistanceFeatures(g, nil).cols)
			}
		})
	}
}
