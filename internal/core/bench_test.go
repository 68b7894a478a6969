package core

import (
	"testing"

	"fairsqg/internal/gen"
	"fairsqg/internal/query"
)

func benchConfig(b *testing.B) *Config {
	g := fixtureGraph(b, 1)
	return fixtureConfig(b, g, 0.1, 3)
}

func BenchmarkEnumQGen(b *testing.B) {
	for _, noIndex := range []bool{false, true} {
		name := "index"
		if noIndex {
			name = "scan"
		}
		b.Run(name, func(b *testing.B) {
			cfg := benchConfig(b)
			cfg.DisableAttrIndex = noIndex
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := NewRunner(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := r.EnumQGen(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSpawnRefine measures one Spawn of the star template's root
// (diameter 2) on a 15k-node LKI graph, from as many seeds as the spawner
// still walks from: the neighborhood pass and the restricted child list.
func BenchmarkSpawnRefine(b *testing.B) {
	g := gen.BuildLKI(gen.Options{Nodes: 15000, Seed: 1})
	r := spawnRunner(b, g, spawnTemplates[0])
	tpl := r.cfg.Template
	root := r.verify(query.MustInstance(tpl, query.Root(tpl)), nil)
	v := &Verified{Q: root.Q, Matches: root.Matches[:min(len(root.Matches), maxNeighborhoodSeeds)]}
	sp := newSpawner(r)
	if sp.diameter != 2 || len(sp.refine(v)) == 0 {
		b.Fatalf("diameter %d, %d children", sp.diameter, len(sp.refine(v)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.spent = 0
		sp.refine(v)
	}
	b.ReportMetric(float64(r.stats.HoodNodes)/float64(r.stats.HoodRuns), "nodes/walk")
}

func BenchmarkRfQGen(b *testing.B) {
	cfg := benchConfig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewRunner(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.RfQGen(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBiQGen(b *testing.B) {
	for _, noIndex := range []bool{false, true} {
		name := "index"
		if noIndex {
			name = "scan"
		}
		b.Run(name, func(b *testing.B) {
			cfg := benchConfig(b)
			cfg.DisableAttrIndex = noIndex
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := NewRunner(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := r.BiQGen(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

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
