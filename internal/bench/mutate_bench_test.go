package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"fairsqg/internal/gen"
	"fairsqg/internal/graph"
)

// mixedBatch is a realistic mixed edit of the given size over live Person
// nodes: 40 % attribute updates, 30 % new recommend edges, 20 % node
// removals, 10 % fresh nodes. IDs step by a prime so ops spread across the
// columns instead of clustering.
func mixedBatch(g *graph.Graph, ops int) []graph.Mutation {
	persons := g.NodesByLabel("Person")
	var batch []graph.Mutation
	for i := 0; i < ops*4/10; i++ {
		batch = append(batch, graph.Mutation{
			Op: graph.MutSetAttr, Node: persons[(i*101)%len(persons)],
			Attr: "yearsOfExp", Value: graph.Int(int64(i % 30)),
		})
	}
	for i := 0; i < ops*3/10; i++ {
		from := persons[(i*211)%len(persons)]
		to := persons[(i*307+13)%len(persons)]
		if from == to {
			to = persons[(i*307+14)%len(persons)]
		}
		batch = append(batch, graph.Mutation{Op: graph.MutAddEdge, From: from, To: to, Label: "recommend"})
	}
	for i := 0; i < ops*2/10; i++ {
		batch = append(batch, graph.Mutation{Op: graph.MutRemoveNode, Node: persons[(i*401+7)%len(persons)]})
	}
	for i := 0; i < ops/10; i++ {
		batch = append(batch, graph.Mutation{
			Op: graph.MutAddNode, Label: "Person",
			Attrs: []graph.AttrPair{
				{Name: "gender", Value: graph.Str("female")},
				{Name: "title", Value: graph.Str("Director")},
				{Name: "yearsOfExp", Value: graph.Int(int64(i))},
			},
		})
	}
	return batch
}

// TestMutateBatchAllocation pins what a batch copies: five chained 20-op
// mixedBatch edits of a 20k-node LKI graph allocate at most 1.5 MB each on
// average. A batch that copied every per-node table in full took about
// 4.9 MB; now it clones the table chunks and permutation pieces it writes,
// and the largest single copy left is the name domain its removals shrink.
func TestMutateBatchAllocation(t *testing.T) {
	g, err := gen.Build("lki", gen.Options{Nodes: 20000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const batches, limit = 5, 1_500_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < batches; i++ {
		if g, _, err = graph.ApplyBatch(g, mixedBatch(g, 20)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / batches
	if per > limit {
		t.Errorf("a 20-op batch on 20k nodes allocates %d B, want ≤ %d", per, limit)
	}
	t.Logf("%d B per batch", per)
}

// BenchmarkMutateBatch compares the two ways an edit reaches a served
// graph: ApplyBatch — a copy-on-write generation that clones the table
// chunks and permutation pieces the batch writes and rebuilds the rows and
// domains it touches — versus the only pre-mutation path, re-uploading the
// full TSV and re-running Freeze (column transposition plus index rebuilds
// from scratch). The mutate rows cross graph size with batch size: what is
// left of the dependence on the first (the chunk pointers every forked
// table copies, the label ranks a removal shifts, and a touched label's
// bucket and permutation piece lists; read B/op) against the work that
// follows the second. Acceptance bar for the live graph layer is
// ApplyBatch ≥ 10× faster than the re-upload on nodes=100k/ops=100; the
// rows are recorded in BENCH.md.
func BenchmarkMutateBatch(b *testing.B) {
	sizes := []int{25000, 100000}
	graphs := make([]*graph.Graph, len(sizes))
	for i, nodes := range sizes {
		var err error
		if graphs[i], err = gen.Build("lki", gen.Options{Nodes: nodes, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("mutate", func(b *testing.B) {
		for i, g := range graphs {
			for _, ops := range []int{20, 100} {
				batch := mixedBatch(g, ops)
				b.Run(fmt.Sprintf("nodes=%dk/ops=%d", sizes[i]/1000, ops), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						ng, res, err := graph.ApplyBatch(g, batch)
						if err != nil {
							b.Fatal(err)
						}
						if res.Ops != len(batch) || ng.Version() != g.Version()+1 {
							b.Fatalf("batch misapplied: %+v", res)
						}
					}
				})
			}
		}
	})
	g := graphs[len(graphs)-1]
	var tsv bytes.Buffer
	if err := graph.WriteTSV(&tsv, g); err != nil {
		b.Fatal(err)
	}
	b.Run("reupload+refreeze", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ng, err := graph.ReadTSV(bytes.NewReader(tsv.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			if ng.NumNodes() != g.NumNodes() {
				b.Fatalf("parsed %d nodes, want %d", ng.NumNodes(), g.NumNodes())
			}
		}
	})
}
