package match

import (
	"context"
	"fmt"
	"testing"

	"fairsqg/internal/graph"
	"fairsqg/internal/query"
)

// candidateBenchGraph builds a 100k-node single-label graph whose "score"
// attribute spreads uniformly over [0, n): the candidate-selection
// benchmarks sweep literal selectivity against it.
func candidateBenchGraph(b *testing.B, n int) *graph.Graph {
	b.Helper()
	g := graph.New()
	for i := 0; i < n; i++ {
		// 7919 is coprime with n=100000, so scores permute [0, n) and the
		// sorted index is a genuine shuffle of the insertion order.
		g.AddNode("Person", map[string]graph.Value{"score": graph.Int(int64(i * 7919 % n))})
	}
	g.Freeze()
	return g
}

// BenchmarkCandidates measures one candidate selection — the label's nodes
// filtered by a range literal — through selectCandidates (the sorted
// attribute index, or the scan past indexScanCutoff) and through the linear
// scan alone, across selectivities. The CI smoke job runs this family with
// -benchtime=1x; BENCH.md records the index-vs-scan crossover.
func BenchmarkCandidates(b *testing.B) {
	const n = 100000
	g := candidateBenchGraph(b, n)
	for _, sel := range []float64{0.001, 0.01, 0.1, 0.5} {
		bound := graph.Int(int64(float64(n) * (1 - sel)))
		lits := query.CompileLiterals(g, []query.BoundLiteral{
			{Attr: "score", Op: graph.OpGE, Value: bound},
		})
		m := New(g)
		base := g.NodesByLabel("Person")
		for _, path := range []struct {
			name string
			pick func() []graph.NodeID
		}{
			{"index", func() []graph.NodeID { return m.selectCandidates("Person", lits) }},
			{"scan", func() []graph.NodeID { return m.scanCandidates(base, lits) }},
		} {
			b.Run(fmt.Sprintf("%s/sel=%g", path.name, sel), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if got := path.pick(); len(got) == 0 {
						b.Fatal("selection came back empty")
					}
				}
			})
		}
	}
}

// BenchmarkEvalOutputScratch measures from-scratch verification of a mid
// lattice instance on a 3000-node random graph.
func BenchmarkEvalOutputScratch(b *testing.B) {
	g := randomGraph(b, 3000, 12000, 7)
	tpl := randomTemplate(b, g)
	mid := query.MustInstance(tpl, query.Instantiation{1, 1, 1, 1})
	m := New(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.EvalOutput(mid)
	}
}

// BenchmarkEvalOutputIncremental measures incVerify: the same instance
// verified within its parent's match set.
func BenchmarkEvalOutputIncremental(b *testing.B) {
	g := randomGraph(b, 3000, 12000, 7)
	tpl := randomTemplate(b, g)
	parent := query.MustInstance(tpl, query.Instantiation{0, 0, 1, 1})
	mid := query.MustInstance(tpl, query.Instantiation{1, 1, 1, 1})
	m := New(g)
	within := m.EvalOutput(parent)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.EvalOutputWithin(mid, within)
	}
}

// BenchmarkRefineChain walks one root-to-leaf refinement chain of the cycle
// template on the largest bench graph — literal steps first, then the edge
// variable that brings the third node in, then the one that closes the
// cycle — each instance evaluated within its parent's matches. "unseeded"
// plans every instance from its label populations; "seeded" from the domains
// held from its parent, as the depth-first walkers do. The CI smoke job runs
// both at -benchtime=1x.
func BenchmarkRefineChain(b *testing.B) {
	g := randomGraph(b, 3000, 12000, 7)
	tpl := shapeTemplate(b, "cycle", g)
	var chain []*query.Instance
	for in, m := query.Root(tpl), New(g); ; {
		q := query.MustInstance(tpl, in)
		if len(m.EvalOutput(q)) == 0 {
			break
		}
		chain = append(chain, q)
		kids := query.RefineSteps(tpl, in)
		if len(kids) == 0 {
			break
		}
		in = kids[0]
	}
	if len(chain) < 4 {
		b.Fatalf("chain of %d instances: the fixture no longer refines", len(chain))
	}
	ctx := context.Background()
	for _, seeded := range []bool{false, true} {
		name := "unseeded"
		if seeded {
			name = "seeded"
		}
		b.Run(name, func(b *testing.B) {
			e := NewEngine(g, EngineOptions{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var seed *Domains
				var within []graph.NodeID
				for _, q := range chain {
					matches, _, held, err := e.ParEvalOutputSeeded(ctx, q, within, nil, seed, seeded, "")
					if err != nil || len(matches) == 0 {
						b.Fatalf("%s: %d matches, err %v", q, len(matches), err)
					}
					if held != nil {
						e.ReleaseDomains(seed)
						seed = held
					}
					within = matches
				}
				e.ReleaseDomains(seed)
			}
			if st := e.Stats(); seeded != (st.ArcsInherited > 0) || st.DomainsHeld != 0 {
				b.Fatalf("seeded=%v: %d arcs inherited, %d domains still held", seeded, st.ArcsInherited, st.DomainsHeld)
			}
		})
	}
}

// BenchmarkEngineWorkload sweeps the full instantiation lattice of the
// largest bench graph — the unit of work one generation run performs —
// through the sequential matcher and the engine, whose store holds the
// candidate lists. That store is what pays off here: the
// lattice re-filters the same label+literal candidate lists for every
// instance that shares bound predicates.
func BenchmarkEngineWorkload(b *testing.B) {
	g := randomGraph(b, 3000, 12000, 7)
	tpl := randomTemplate(b, g)
	var qs []*query.Instance
	for _, in := range allInstantiations(tpl) {
		qs = append(qs, query.MustInstance(tpl, in))
	}
	b.Run("sequential", func(b *testing.B) {
		m := New(g)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range qs {
				m.EvalOutput(q)
			}
		}
	})
	b.Run("engine", func(b *testing.B) {
		e := NewEngine(g, EngineOptions{})
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range qs {
				if _, _, err := e.ParEvalNodeFiltered(ctx, q, q.T.Output, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkEngineNodeOnly isolates the scan-bound path on the largest
// bench graph: single-node instances are pure label+literal filters, so
// the engine's store turns each repeat evaluation from a full label scan
// into a lookup plus copy (BenchmarkEvalOutputNodeOnlyLarge is the scan).
func BenchmarkEngineNodeOnly(b *testing.B) {
	g := randomGraph(b, 3000, 12000, 7)
	tpl := randomTemplate(b, g)
	solo := query.MustInstance(tpl, query.Instantiation{1, 1, 0, 0})
	e := NewEngine(g, EngineOptions{})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.ParEvalNodeFiltered(ctx, solo, solo.T.Output, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalOutputNodeOnlyLarge measures the degenerate single-node
// instance (pure label+literal scan).
func BenchmarkEvalOutputNodeOnlyLarge(b *testing.B) {
	g := randomGraph(b, 3000, 12000, 7)
	tpl := randomTemplate(b, g)
	solo := query.MustInstance(tpl, query.Instantiation{1, 1, 0, 0})
	m := New(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.EvalOutput(solo)
	}
}
