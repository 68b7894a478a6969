package rpq

import (
	"context"
	"math/rand"
	"testing"

	"fairsqg/internal/graph"
	"fairsqg/internal/query"
)

// TestQuickEvalMonotoneInHops: enlarging the hop bound never removes
// targets (the monotonicity the bound ladder's refinement order relies
// on).
func TestQuickEvalMonotoneInHops(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	exprs := []Expr{
		MustParse("a*"), MustParse("a/b"), MustParse("(a|b)+"), MustParse("a/(a|b)*"),
	}
	for trial := 0; trial < 40; trial++ {
		g := graph.New()
		n := 8 + rng.Intn(6)
		for i := 0; i < n; i++ {
			g.AddNode("N", nil)
		}
		for e := 0; e < n*2; e++ {
			from, to := rng.Intn(n), rng.Intn(n)
			if from != to {
				label := "a"
				if rng.Intn(2) == 0 {
					label = "b"
				}
				_ = g.AddEdge(graph.NodeID(from), graph.NodeID(to), label)
			}
		}
		g.Freeze()
		src := []graph.NodeID{graph.NodeID(rng.Intn(n))}
		for _, expr := range exprs {
			nfa := Compile(expr, g)
			prev := map[graph.NodeID]bool{}
			for hops := 0; hops <= 5; hops++ {
				cur := nfa.Eval(context.Background(), g, src, hops)
				curSet := map[graph.NodeID]bool{}
				for _, v := range cur {
					curSet[v] = true
				}
				for v := range prev {
					if !curSet[v] {
						t.Fatalf("trial %d expr %s: target %d lost when hops grew to %d",
							trial, expr, v, hops)
					}
				}
				prev = curSet
			}
		}
	}
}

// TestQuickBranchDisablingShrinks: disabling an alternation branch never
// adds targets.
func TestQuickBranchDisablingShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 30; trial++ {
		g := graph.New()
		n := 10
		for i := 0; i < n; i++ {
			g.AddNode("N", map[string]graph.Value{"x": graph.Int(int64(i))})
		}
		for e := 0; e < 25; e++ {
			from, to := rng.Intn(n), rng.Intn(n)
			if from != to {
				label := []string{"a", "b", "c"}[rng.Intn(3)]
				_ = g.AddEdge(graph.NodeID(from), graph.NodeID(to), label)
			}
		}
		g.Freeze()
		tpl, err := NewTemplate("q", "N", MustParse("a|b|c/c"), []int{4})
		if err != nil {
			t.Fatal(err)
		}
		full := query.Instantiation{query.Wildcard, query.Wildcard, query.Wildcard} // every branch enabled
		fullNFA := Compile(tpl.EnabledExpr(full), g)
		sources := tpl.Sources(g, full)
		fullTargets := map[graph.NodeID]bool{}
		for _, v := range fullNFA.Eval(context.Background(), g, sources, 4) {
			fullTargets[v] = true
		}
		for bi := range tpl.Branches {
			in := full.Clone()
			in[len(tpl.Vars)+bi] = 0
			expr := tpl.EnabledExpr(in)
			if expr == nil {
				continue
			}
			sub := Compile(expr, g).Eval(context.Background(), g, sources, 4)
			for _, v := range sub {
				if !fullTargets[v] {
					t.Fatalf("trial %d: disabling branch %d added target %d", trial, bi, v)
				}
			}
		}
	}
}
