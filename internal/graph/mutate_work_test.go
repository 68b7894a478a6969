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
// size rebuilds the same structures and makes about as many allocations —
// what grows with the graph is the size of the arrays copied, not the work
// done on them.
func TestApplyBatchWorkFollowsBatch(t *testing.T) {
	var touched [2]graph.Touched
	var allocs [2]float64
	for i, nodes := range []int{5000, 40000} {
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
		touched[i] = res.Touched
		allocs[i] = testing.AllocsPerRun(5, func() { graph.ApplyBatch(g, batch) })
	}
	if touched[0] != touched[1] {
		t.Errorf("touched sizes differ:\n 5k: %+v\n40k: %+v", touched[0], touched[1])
	}
	if d := allocs[1] - allocs[0]; d < -16 || d > 16 {
		t.Errorf("allocations per batch: %.0f on 5k nodes, %.0f on 40k", allocs[0], allocs[1])
	}
	t.Logf("touched %+v; allocs/batch %.0f (5k) %.0f (40k)", touched[0], allocs[0], allocs[1])
}
