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

// Table2 reproduces Table II: the dataset overview (|V|, |E|, average
// attribute count, group counts, largest active domain).
func (h *Harness) Table2() ([]Row, error) {
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
			Exp: "table2", Series: ds, X: "overview",
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

// CBMComparison reproduces the Exp-1 CBM discussion: under the Fig. 9(a)
// DBP setting it compares Kungs against the constraint-based method in
// runtime and BiQGen against CBM in I_R.
func (h *Harness) CBMComparison() ([]Row, error) {
	w, err := h.buildWorkload(workloadParams{
		dataset: gen.DBP, size: 3, rangeVars: 2, edgeVars: 1,
		numGroups: 2, totalC: h.opts.totalC(), tightness: 0.7, eps: 0.01,
		maxDomain: 2 * h.opts.maxDomain(),
	})
	if err != nil {
		return nil, err
	}
	_, divMax, covMax, err := referencePoints(w)
	if err != nil {
		return nil, err
	}
	kr, err := core.NewRunner(w.cfg)
	if err != nil {
		return nil, err
	}
	kres, err := kr.Kungs()
	if err != nil {
		return nil, err
	}
	cr, err := core.NewRunner(w.cfg)
	if err != nil {
		return nil, err
	}
	cres, err := cr.CBM(core.CBMOptions{})
	if err != nil {
		return nil, err
	}
	br, err := core.NewRunner(w.cfg)
	if err != nil {
		return nil, err
	}
	bres, err := br.BiQGen()
	if err != nil {
		return nil, err
	}
	mk := func(name string, res *core.Result) Row {
		return Row{
			Exp: "cbm", Series: name, X: "dbp",
			Value: res.Elapsed.Seconds(),
			Extra: map[string]float64{
				"I_R":  pareto.RIndicator(res.Points(), 0.5, divMax, covMax),
				"size": float64(len(res.Set)),
			},
		}
	}
	return []Row{mk("Kungs", kres), mk("CBM", cres), mk("BiQGen", bres)}, nil
}

// Fig12 reproduces the Exp-4 case study: the movie-search template on DBP
// with equal coverage over two genre groups. For each algorithm it reports
// the three highest-coverage suggested instances with their per-group
// answer counts and the diversity of their answers.
func (h *Harness) Fig12() ([]Row, error) {
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
	for _, alg := range []algorithm{
		{"RfQGen", (*core.Runner).RfQGen},
		{"BiQGen", (*core.Runner).BiQGen},
	} {
		r, err := core.NewRunner(cfg)
		if err != nil {
			return nil, err
		}
		res, err := alg.run(r)
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
				Exp:    "fig12",
				Series: alg.name,
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

// Pruning quantifies the Exp-1/Exp-2 pruning claims: the fraction of the
// instance space each guided algorithm avoids verifying relative to
// EnumQGen, per dataset under the Fig. 9(a) setting.
func (h *Harness) Pruning() ([]Row, error) {
	var rows []Row
	for _, ds := range []string{gen.DBP, gen.LKI, gen.Cite} {
		w, err := h.buildWorkload(workloadParams{
			dataset: ds, size: 3, rangeVars: 2, edgeVars: 1,
			numGroups: 2, totalC: h.opts.totalC(), tightness: 0.7, eps: 0.01,
			maxDomain: 2 * h.opts.maxDomain(),
		})
		if err != nil {
			return nil, err
		}
		er, err := core.NewRunner(w.cfg)
		if err != nil {
			return nil, err
		}
		eres, err := er.EnumQGen()
		if err != nil {
			return nil, err
		}
		for _, alg := range []algorithm{
			{"RfQGen", (*core.Runner).RfQGen},
			{"BiQGen", (*core.Runner).BiQGen},
		} {
			r, err := core.NewRunner(w.cfg)
			if err != nil {
				return nil, err
			}
			res, err := alg.run(r)
			if err != nil {
				return nil, err
			}
			saved := 1 - float64(res.Stats.Verified)/float64(eres.Stats.Verified)
			rows = append(rows, Row{
				Exp: "pruning", Series: alg.name, X: ds,
				Value: saved,
				Extra: map[string]float64{
					"verified":     float64(res.Stats.Verified),
					"enumVerified": float64(eres.Stats.Verified),
				},
			})
		}
	}
	return rows, nil
}

// Ablation benchmarks the design choices DESIGN.md calls out: incremental
// verification, sandwich pruning and bound pruning — each on/off with
// runtime and verified counts.
func (h *Harness) Ablation() ([]Row, error) {
	w, err := h.buildWorkload(workloadParams{
		dataset: gen.LKI, size: 4, rangeVars: 2, edgeVars: 1,
		numGroups: 2, totalC: h.opts.totalC(), tightness: 0.7, eps: 0.05,
		maxDomain: 2 * h.opts.maxDomain(),
	})
	if err != nil {
		return nil, err
	}
	type variant struct {
		name string
		mod  func(c *core.Config)
		run  func(*core.Runner) (*core.Result, error)
	}
	variants := []variant{
		{"RfQGen", func(*core.Config) {}, (*core.Runner).RfQGen},
		{"RfQGen -incremental", func(c *core.Config) { c.DisableIncremental = true }, (*core.Runner).RfQGen},
		{"BiQGen", func(*core.Config) {}, (*core.Runner).BiQGen},
		{"BiQGen -sandwich", func(c *core.Config) { c.DisableSandwich = true }, (*core.Runner).BiQGen},
		{"RfQGen -boundprune", func(c *core.Config) { c.DisableBoundPrune = true }, (*core.Runner).RfQGen},
		{"ParQGen w=4", func(*core.Config) {}, func(r *core.Runner) (*core.Result, error) { return r.ParQGen(4) }},
	}
	var rows []Row
	for _, v := range variants {
		cfg := *w.cfg
		v.mod(&cfg)
		r, err := core.NewRunner(&cfg)
		if err != nil {
			return nil, err
		}
		res, err := v.run(r)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Row{
			Exp: "ablation", Series: v.name, X: "lki",
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
