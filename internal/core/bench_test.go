package core

import (
	"testing"

	"fairsqg/internal/gen"
	"fairsqg/internal/graph"
)

func benchConfig(b *testing.B) *Config {
	g := fixtureGraph(b, 1)
	return fixtureConfig(b, g, 0.1, 3)
}

// benchAlg times whole runs of one algorithm, runner construction included.
func benchAlg(b *testing.B, alg func(*Runner) (*Result, error)) {
	cfg := benchConfig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewRunner(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := alg(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnumQGen(b *testing.B) { benchAlg(b, (*Runner).EnumQGen) }
func BenchmarkRfQGen(b *testing.B)   { benchAlg(b, (*Runner).RfQGen) }
func BenchmarkBiQGen(b *testing.B)   { benchAlg(b, (*Runner).BiQGen) }

// BenchmarkIncScore measures the end-to-end effect of the incremental
// diversity scorer on whole generation runs with exact (uncapped) pairwise
// scoring, where the pair loop is the dominant per-verification cost.
func BenchmarkIncScore(b *testing.B) {
	for _, alg := range []string{"enum", "bi"} {
		for _, disable := range []bool{false, true} {
			name := alg + "/inc"
			if disable {
				name = alg + "/noinc"
			}
			b.Run(name, func(b *testing.B) {
				cfg := benchConfig(b)
				cfg.MaxPairs = -1
				cfg.DisableIncScore = disable
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r, err := NewRunner(cfg)
					if err != nil {
						b.Fatal(err)
					}
					switch alg {
					case "enum":
						_, err = r.EnumQGen()
					case "bi":
						_, err = r.BiQGen()
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkOnlineQGen(b *testing.B) {
	cfg := benchConfig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewRunner(cfg)
		if err != nil {
			b.Fatal(err)
		}
		stream := NewRandomStream(cfg.Template, 64, 9)
		if _, err := r.OnlineQGen(stream, OnlineOptions{K: 5, Window: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// inheritColumns are the two sides of the inheritance benchmarks: the
// default, and DisableIncremental — every plan from its label populations,
// no within set, no shared answer (the paper's naive verification).
var inheritColumns = []struct {
	name  string
	naive bool
}{{"seeded", false}, {"naive", true}}

// inheritConfig is the star template over g scored the way the repository
// benchmark's LKI workloads are (two attributes, 2000 sampled pairs), so
// that verification, not the Levenshtein kernel, is what the rows compare.
func inheritConfig(b *testing.B, g *graph.Graph, naive bool) *Config {
	cfg := *starConfig(b, g)
	cfg.DistanceAttrs, cfg.MaxPairs = []string{"major", "yearsOfExp"}, 2000
	cfg.DisableIncremental = naive
	return &cfg
}

// BenchmarkEnumLattice runs EnumQGen over the star template's 256-instance
// lattice on a 15k-node LKI graph: what the enumeration prefix stack, the
// root seed and shared answers save the enum family per run.
func BenchmarkEnumLattice(b *testing.B) {
	g := gen.BuildLKI(gen.Options{Nodes: 15000, Seed: 1})
	for _, col := range inheritColumns {
		b.Run(col.name, func(b *testing.B) {
			r, err := NewRunner(inheritConfig(b, g, col.naive))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var st Stats
			for i := 0; i < b.N; i++ {
				res, err := r.EnumQGen()
				if err != nil {
					b.Fatal(err)
				}
				st = res.Stats
			}
			if st.Verified < 36 || col.naive != (st.Matcher.ScratchPlans == st.Verified) {
				b.Fatalf("%d verifications, %d plans from the labels", st.Verified, st.Matcher.ScratchPlans)
			}
			b.ReportMetric(float64(st.Matcher.ScratchPlans), "scratch-plans/run")
			b.ReportMetric(float64(st.AnswersShared), "shared/run")
		})
	}
}

// flipSource announces, before every arrival numbered a multiple of every,
// the other of two prepared generations: re-scoring without the cost of
// building a generation in the timed loop.
type flipSource struct {
	gens        [2]*graph.Graph
	every, n, i int
}

func (s *flipSource) Poll() *MutationEvent {
	if s.n++; s.n%s.every != 0 {
		return nil
	}
	s.i ^= 1
	return &MutationEvent{Graph: s.gens[s.i]}
}

// BenchmarkOnlineRescore is an OnlineQGen over 48 arrivals whose graph
// changes generation before every sixth poll, so the run is dominated by
// Retarget and the re-verification of archive and window: one plan from the
// labels per generation and a walk down the working set's lattice, against
// one plan per verification.
func BenchmarkOnlineRescore(b *testing.B) {
	g := gen.BuildLKI(gen.Options{Nodes: 15000, Seed: 1})
	g2, _, err := graph.ApplyBatch(g, []graph.Mutation{
		{Op: graph.MutSetAttr, Node: 1, Attr: "yearsOfExp", Value: graph.Int(3)},
		{Op: graph.MutSetAttr, Node: 2, Attr: "yearsOfExp", Value: graph.Int(17)},
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, col := range inheritColumns {
		b.Run(col.name, func(b *testing.B) {
			base := inheritConfig(b, g, col.naive)
			b.ReportAllocs()
			b.ResetTimer()
			var res *OnlineResult
			for i := 0; i < b.N; i++ {
				cfg := *base
				r, err := NewRunner(&cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err = r.OnlineQGen(NewRandomStream(cfg.Template, 48, 9), OnlineOptions{
					K: 10, Window: 40, Mutations: &flipSource{gens: [2]*graph.Graph{g, g2}, every: 6},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			st := res.Stats
			// Both columns look their parents up in the memo: naive keeps score
			// inheritance, which needs one.
			if res.Rescores < 7 || col.naive != (st.Matcher.ScratchPlans == st.Verified) || st.AncestorsFound == 0 {
				b.Fatalf("%d re-scores, %d verifications, %d plans from the labels, %d ancestors found",
					res.Rescores, st.Verified, st.Matcher.ScratchPlans, st.AncestorsFound)
			}
			b.ReportMetric(float64(st.Matcher.ScratchPlans), "scratch-plans/run")
			b.ReportMetric(float64(st.Verified), "verified/run")
			b.ReportMetric(float64(st.AncestorsFound), "ancestors/run")
			b.ReportMetric(float64(st.Wall[PhaseReverify])/1e6, "reverify-ms/run")
			b.ReportMetric(float64(st.Wall[PhasePlan]+st.Wall[PhaseSearch])/1e6, "match-ms/run")
		})
	}
}
