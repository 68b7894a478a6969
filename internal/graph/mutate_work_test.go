package graph_test

import (
	"testing"

	"fairsqg/internal/gen"
	"fairsqg/internal/graph"
)

// liveBatch is the benchmark's 20-op batch shape over an LKI graph: nine
// yearsOfExp writes, two retitles, five new recommend edges, two edge
// removals, and a new person with an edge — on persons from the middle of
// the bucket, where degrees do not depend on the graph's size.
func liveBatch(g *graph.Graph) []graph.Mutation {
	persons := g.NodesByLabel("Person")
	p := func(i int) graph.NodeID { return persons[len(persons)/2+i] }
	var batch []graph.Mutation
	for i := 0; i < 9; i++ {
		batch = append(batch, graph.Mutation{Op: graph.MutSetAttr, Node: p(i), Attr: "yearsOfExp", Value: graph.Int(int64(i))})
	}
	for i := 9; i < 11; i++ {
		batch = append(batch, graph.Mutation{Op: graph.MutSetAttr, Node: p(i), Attr: "title", Value: graph.Str("Director")})
	}
	for i := 11; i < 16; i++ {
		batch = append(batch, graph.Mutation{Op: graph.MutAddEdge, From: p(i), To: p(i + 10), Label: "recommend"})
	}
	for i := 16; i < 18; i++ {
		e := g.Out(p(i))[0]
		batch = append(batch, graph.Mutation{Op: graph.MutRemoveEdge, From: p(i), To: e.To, Label: g.LabelOf(e.Label)})
	}
	return append(batch,
		graph.Mutation{Op: graph.MutAddNode, Label: "Person", Attrs: g.AttrPairs(p(18))},
		graph.Mutation{Op: graph.MutAddEdge, From: graph.NodeID(g.NumNodes()), To: p(19), Label: "recommend"})
}

// TestApplyBatchWorkFollowsBatch: the same batch on a graph eight times the
// size rebuilds the same structures, makes about as many allocations and
// clones about as many table chunks — what grows with the graph is the
// chunk-pointer arrays forked, not the work done. 40,000 is a multiple of
// the chunk size, so there the batch's new node opens a fresh chunk at the
// end of every per-node table; at 40,010 it lands in a copied tail chunk.
func TestApplyBatchWorkFollowsBatch(t *testing.T) {
	sizes := []int{5000, 40000, 40010}
	touched := make([]graph.Touched, len(sizes))
	allocs := make([]float64, len(sizes))
	chunks := make([]int64, len(sizes))
	for i, nodes := range sizes {
		g, err := gen.Build("lki", gen.Options{Nodes: nodes, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		batch := liveBatch(g)
		ng, res, err := graph.ApplyBatch(g, batch)
		if err != nil {
			t.Fatal(err)
		}
		if err := graph.CheckInvariants(ng); err != nil {
			t.Fatal(err)
		}
		touched[i], chunks[i] = res.Touched, res.Touched.ChunkBytes
		touched[i].ChunkBytes = 0
		allocs[i] = testing.AllocsPerRun(5, func() { graph.ApplyBatch(g, batch) })
	}
	for i := 1; i < len(sizes); i++ {
		if touched[0] != touched[i] {
			t.Errorf("touched sizes differ:\n%d: %+v\n%d: %+v", sizes[0], touched[0], sizes[i], touched[i])
		}
		if d := allocs[i] - allocs[0]; d < -16 || d > 16 {
			t.Errorf("allocations per batch: %.0f on %d nodes, %.0f on %d", allocs[0], sizes[0], allocs[i], sizes[i])
		}
		if chunks[i] > 2*chunks[0] {
			t.Errorf("chunk bytes per batch: %d on %d nodes, %d on %d", chunks[0], sizes[0], chunks[i], sizes[i])
		}
	}
	t.Logf("touched %+v; allocs/batch %v; chunk bytes %v (nodes %v)", touched[0], allocs, chunks, sizes)
}
