package bench

import (
	"fmt"
	"sort"

	"fairsqg/internal/core"
	"fairsqg/internal/gen"
	"fairsqg/internal/graph"
	"fairsqg/internal/groups"
	"fairsqg/internal/pareto"
	"fairsqg/internal/query"
)

// table2 reproduces Table II: the dataset overview (|V|, |E|, average
// attribute count, group counts, largest active domain).
func (h *Harness) table2() ([]Row, error) {
	var rows []Row
	for _, ds := range []string{gen.DBP, gen.LKI, gen.Cite} {
		g, err := h.Dataset(ds)
		if err != nil {
			return nil, err
		}
		s := graph.Summarize(g)
		label, attr := groupAttr(ds)
		numGroups := len(groups.ByAttribute(g, label, attr))
		rows = append(rows, Row{
			Series: ds, X: "overview",
			Value: float64(s.Nodes),
			Extra: map[string]float64{
				"E":          float64(s.Edges),
				"avgAttrs":   s.AvgAttrs,
				"nodeLabels": float64(s.NodeLabels),
				"edgeLabels": float64(s.EdgeLabels),
				"maxAdom":    float64(s.MaxAdom),
				"groups":     float64(numGroups),
			},
		})
	}
	return rows, nil
}

// cbmRow is a row of the Exp-1 CBM discussion, under the Fig. 9(a) DBP
// setting: it compares Kungs against the constraint-based method in
// runtime (Value, seconds) and BiQGen against CBM in I_R (Extra, λ_R = 0.5).
func (h *Harness) cbmRow(p workloadParams, res *core.Result) (Row, error) {
	_, divMax, covMax, err := h.reference(p)
	if err != nil {
		return Row{}, err
	}
	return Row{
		Value: res.Elapsed.Seconds(),
		Extra: map[string]float64{
			"I_R":  pareto.RIndicator(res.Points(), 0.5, divMax, covMax),
			"size": float64(len(res.Set)),
		},
	}, nil
}

// fig12 reproduces the Exp-4 case study: the movie-search template on DBP
// with equal coverage over two genre groups. For each algorithm it reports
// the three highest-coverage suggested instances with their per-group
// answer counts and the diversity of their answers.
func (h *Harness) fig12() ([]Row, error) {
	g, err := h.Dataset(gen.DBP)
	if err != nil {
		return nil, err
	}
	tpl := gen.MovieTemplate()
	if err := tpl.BindDomains(g, query.DomainOptions{MaxValues: h.opts.maxDomain()}); err != nil {
		return nil, err
	}
	set := groups.ByValues(g, "Movie", "genre", "Romance", "Horror")
	if len(set) != 2 {
		return nil, fmt.Errorf("bench: fig12 needs Romance and Horror groups")
	}
	// Choose the largest equal constraint the template's root can satisfy,
	// starting from the paper's (100, 100).
	cfg := &core.Config{
		G: g, Template: tpl, Groups: set, Eps: 0.05,
		DistanceAttrs: distanceAttrs(gen.DBP),
		MaxPairs:      h.opts.maxPairs(),
	}
	want := h.opts.totalC() / 2
	for ; want > 0; want /= 2 {
		groups.EqualOpportunity(set, want)
		r, err := core.NewRunner(cfg)
		if err != nil {
			return nil, err
		}
		feas, err := r.AllFeasible()
		if err != nil {
			return nil, err
		}
		if len(feas) > 0 {
			break
		}
	}
	if want == 0 {
		return nil, fmt.Errorf("bench: fig12 workload infeasible at any coverage level")
	}
	var rows []Row
	for _, alg := range []string{"RfQGen", "BiQGen"} {
		r, err := core.NewRunner(cfg)
		if err != nil {
			return nil, err
		}
		res, err := r.Run(coreNames[alg], 0)
		if err != nil {
			return nil, err
		}
		picked := append([]*core.Verified(nil), res.Set...)
		sort.Slice(picked, func(i, j int) bool { return picked[i].Point.Cov > picked[j].Point.Cov })
		if len(picked) > 3 {
			picked = picked[:3]
		}
		for i, v := range picked {
			counts := set.Count(v.Matches)
			rows = append(rows, Row{
				Series: alg,
				X:      fmt.Sprintf("q%d %s", i+1, v.Q.String()),
				Value:  v.Point.Cov,
				Extra: map[string]float64{
					"div":     v.Point.Div,
					"romance": float64(counts[0]),
					"horror":  float64(counts[1]),
					"answers": float64(len(v.Matches)),
				},
			})
		}
	}
	return rows, nil
}

// pruningRow quantifies the Exp-1/Exp-2 pruning claims under the Fig. 9(a)
// setting: the fraction of EnumQGen's verifications a guided algorithm
// avoids. Both runs are Fig. 9(a)'s.
func (h *Harness) pruningRow(p workloadParams, res *core.Result) (Row, error) {
	eres, err := h.result(p, "EnumQGen")
	if err != nil {
		return Row{}, err
	}
	return Row{
		Value: 1 - float64(res.Stats.Verified)/float64(eres.Stats.Verified),
		Extra: map[string]float64{
			"verified":     float64(res.Stats.Verified),
			"enumVerified": float64(eres.Stats.Verified),
		},
	}, nil
}

// ablation benchmarks the design choices DESIGN.md calls out: incremental
// verification, sandwich pruning and bound pruning — each on/off with
// runtime and verified counts — on the online experiments' workload.
func (h *Harness) ablation() ([]Row, error) {
	base, err := h.workload(h.onlineParams())
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name, alg string // alg: core's name; workers = 4 is ParQGen's fan-out, the rest ignore it
		mod       func(c *core.Config)
	}{
		{"RfQGen", "rf", func(*core.Config) {}},
		{"RfQGen -incremental", "rf", func(c *core.Config) { c.DisableIncremental = true }},
		{"BiQGen", "bi", func(*core.Config) {}},
		{"BiQGen -sandwich", "bi", func(c *core.Config) { c.DisableSandwich = true }},
		{"RfQGen -boundprune", "rf", func(c *core.Config) { c.DisableBoundPrune = true }},
		{"ParQGen w=4", "par", func(*core.Config) {}},
	}
	var rows []Row
	for _, v := range variants {
		cfg := *base
		v.mod(&cfg)
		r, err := core.NewRunner(&cfg)
		if err != nil {
			return nil, err
		}
		res, err := r.Run(v.alg, 4)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Row{
			Series: v.name, X: "lki",
			Value: res.Elapsed.Seconds(),
			Extra: map[string]float64{
				"verified": float64(res.Stats.Verified),
				"pruned":   float64(res.Stats.Pruned),
				"size":     float64(len(res.Set)),
			},
		})
	}
	return rows, nil
}
