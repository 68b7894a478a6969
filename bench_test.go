package fairsqg

import (
	"testing"

	"fairsqg/internal/bench"
	"fairsqg/internal/gen"
)

// benchHarness runs the experiment suite at a reduced scale so the full
// benchmark pass completes on one machine; use cmd/experiments -scale full
// for paper-scale runs. Dataset construction is excluded from timings by
// prewarming the harness cache.
func benchHarness(b *testing.B) *bench.Harness {
	b.Helper()
	h := bench.New(bench.Options{
		Nodes:     map[string]int{gen.DBP: 4000, gen.LKI: 5000, gen.Cite: 4000},
		Seed:      1,
		TotalC:    30,
		MaxDomain: 5,
		MaxPairs:  4000,
		StreamLen: 96,
	})
	for _, ds := range []string{gen.DBP, gen.LKI, gen.Cite} {
		if _, err := h.Dataset(ds); err != nil {
			b.Fatal(err)
		}
	}
	return h
}

// benchExperiment times one experiment per iteration on a fresh harness,
// built with the timer stopped: a harness makes each run once, so a reused
// one would time its memo from the second iteration on.
func benchExperiment(b *testing.B, id string) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := benchHarness(b)
		b.StartTimer()
		rows, err := h.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkTable2DatasetOverview regenerates Table II (dataset overview).
func BenchmarkTable2DatasetOverview(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkFig9aOverallEffectiveness regenerates Fig. 9(a): I_ε of Kungs,
// EnumQGen, RfQGen and BiQGen over the three datasets.
func BenchmarkFig9aOverallEffectiveness(b *testing.B) { benchExperiment(b, "fig9a") }

// BenchmarkFig9bVaryEpsilon regenerates Fig. 9(b): I_ε vs ε on LKI.
func BenchmarkFig9bVaryEpsilon(b *testing.B) { benchExperiment(b, "fig9b") }

// BenchmarkFig9cVaryRangeVars regenerates Fig. 9(c): I_ε vs |X_L| on DBP.
func BenchmarkFig9cVaryRangeVars(b *testing.B) { benchExperiment(b, "fig9c") }

// BenchmarkFig9dVaryEdgeVars regenerates Fig. 9(d): I_ε vs |X_E| on LKI.
func BenchmarkFig9dVaryEdgeVars(b *testing.B) { benchExperiment(b, "fig9d") }

// BenchmarkFig9eAnytimeQuality regenerates Fig. 9(e): anytime I_R under
// user preferences λ_R ∈ {0.1, 0.9}.
func BenchmarkFig9eAnytimeQuality(b *testing.B) { benchExperiment(b, "fig9e") }

// BenchmarkFig9fVaryCoverage regenerates Fig. 9(f): I_R vs C on DBP.
func BenchmarkFig9fVaryCoverage(b *testing.B) { benchExperiment(b, "fig9f") }

// BenchmarkFig9ghVaryGroups regenerates Fig. 9(g)/(h): I_R and I_ε vs |P|.
func BenchmarkFig9ghVaryGroups(b *testing.B) { benchExperiment(b, "fig9gh") }

// BenchmarkCBMComparison regenerates the Exp-1 CBM comparison.
func BenchmarkCBMComparison(b *testing.B) { benchExperiment(b, "cbm") }

// BenchmarkFig10aEfficiency regenerates Fig. 10(a): runtime per dataset.
func BenchmarkFig10aEfficiency(b *testing.B) { benchExperiment(b, "fig10a") }

// BenchmarkFig10bVaryEpsilon regenerates Fig. 10(b): runtime vs ε on LKI.
func BenchmarkFig10bVaryEpsilon(b *testing.B) { benchExperiment(b, "fig10b") }

// BenchmarkFig10cVaryRangeVars regenerates Fig. 10(c): runtime vs |X_L|.
func BenchmarkFig10cVaryRangeVars(b *testing.B) { benchExperiment(b, "fig10c") }

// BenchmarkFig10dVaryEdgeVars regenerates Fig. 10(d): runtime vs |X_E|.
func BenchmarkFig10dVaryEdgeVars(b *testing.B) { benchExperiment(b, "fig10d") }

// BenchmarkFig11aOnlineDelay regenerates Fig. 11(a): OnlineQGen batch
// delay vs k, batch size and window size.
func BenchmarkFig11aOnlineDelay(b *testing.B) { benchExperiment(b, "fig11a") }

// BenchmarkFig11bOnlineEffectiveness regenerates Fig. 11(b): OnlineQGen
// anytime I_ε.
func BenchmarkFig11bOnlineEffectiveness(b *testing.B) { benchExperiment(b, "fig11b") }

// BenchmarkFig12CaseStudy regenerates the Exp-4 movie-search case study.
func BenchmarkFig12CaseStudy(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkPruningAblation quantifies the verification savings of RfQGen
// and BiQGen relative to EnumQGen (the Exp-1/2 pruning claims).
func BenchmarkPruningAblation(b *testing.B) { benchExperiment(b, "pruning") }

// BenchmarkDesignAblations benchmarks incremental verification, sandwich
// pruning and bound pruning on/off.
func BenchmarkDesignAblations(b *testing.B) { benchExperiment(b, "ablation") }

// BenchmarkRPQGeneration benchmarks the regular-path-query extension (the
// paper's future-work query class): refinement-based ε-Pareto generation
// over a parameterized RPQ on the citation dataset.
func BenchmarkRPQGeneration(b *testing.B) {
	g, err := BuildDataset(DatasetCite, DatasetOptions{Nodes: 4000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	expr, err := ParsePathExpr("cites|cites/cites")
	if err != nil {
		b.Fatal(err)
	}
	tpl, err := NewRPQTemplate("influence", "Paper", expr, []int{4, 2, 1})
	if err != nil {
		b.Fatal(err)
	}
	tpl.AddVar("minYear", "year", OpGE)
	if err := tpl.BindDomains(g, 5); err != nil {
		b.Fatal(err)
	}
	set := EqualOpportunity(GroupsByValues(g, "Paper", "topic", "MachineLearning", "Databases"), 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg, err := NewRPQConfig(g, tpl)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Groups, cfg.Eps = set, 0.1
		cfg.DistanceAttrs = []string{"topic", "numberOfCitations"}
		cfg.MaxPairs = 20000
		gen, err := NewGenerator(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := gen.Refine(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelGeneration benchmarks ParQGen against the sequential
// RfQGen on the LKI workload.
func BenchmarkParallelGeneration(b *testing.B) {
	g, err := BuildDataset(DatasetLKI, DatasetOptions{Nodes: 5000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tpl := TalentTemplate()
	if err := tpl.BindDomains(g, DomainOptions{MaxValues: 5}); err != nil {
		b.Fatal(err)
	}
	set := EqualOpportunity(GroupsByAttribute(g, "Person", "gender"), 10)
	cfg := &Config{G: g, Template: tpl, Groups: set, Eps: 0.05,
		DistanceAttrs: []string{"major", "yearsOfExp"}, MaxPairs: 4000}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gen, err := NewGenerator(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := gen.Refine(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gen, err := NewGenerator(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := gen.Parallel(4); err != nil {
				b.Fatal(err)
			}
		}
	})
}
