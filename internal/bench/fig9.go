package bench

import (
	"fmt"

	"fairsqg/internal/core"
	"fairsqg/internal/gen"
	"fairsqg/internal/pareto"
)

// twinAlgorithms are the series of Fig. 9(a)–(d) and Fig. 10(a)–(d), in
// row order; approxAlgorithms are the approximations among them.
var (
	twinAlgorithms   = []string{"Kungs", "EnumQGen", "RfQGen", "BiQGen"}
	approxAlgorithms = twinAlgorithms[1:]
)

// setting is one x of a sweep: its label and its workload.
type setting struct {
	x string
	p workloadParams
}

// sweepRows returns the experiment that runs each algorithm at each
// setting of a sweep and formats every run with row, labelled with the
// algorithm and the setting's x. Runs come from the harness memo, so
// experiments over one sweep (a Fig. 9 figure and its Fig. 10 twin) make
// each run once.
func sweepRows(
	sweep func(*Harness) []setting, algs []string,
	row func(*Harness, workloadParams, *core.Result) (Row, error),
) func(*Harness) ([]Row, error) {
	return func(h *Harness) ([]Row, error) {
		var rows []Row
		for _, s := range sweep(h) {
			for _, alg := range algs {
				res, err := h.result(s.p, alg)
				if err != nil {
					return nil, err
				}
				r, err := row(h, s.p, res.Result)
				if err != nil {
					return nil, err
				}
				r.Series, r.X = alg, s.x
				rows = append(rows, r)
			}
		}
		return rows, nil
	}
}

// overall is the Fig. 9(a) setting per dataset: |Q|=3, |X|=3 (1 edge + 2
// range variables), |P|=2, equal opportunity, ε=0.01.
func (h *Harness) overall() []setting {
	var s []setting
	for _, ds := range []string{gen.DBP, gen.LKI, gen.Cite} {
		s = append(s, setting{ds, workloadParams{
			dataset: ds, size: 3, rangeVars: 2, edgeVars: 1,
			numGroups: 2, tightness: 0.7, eps: 0.01,
			maxDomain: 2 * h.opts.maxDomain(),
		}})
	}
	return s
}

// overallDBP is the Fig. 9(a) setting on DBP alone.
func (h *Harness) overallDBP() []setting { return h.overall()[:1] }

// varyEps is the Fig. 9(b) setting: LKI while ε varies from 0.2 to 1.0,
// with |Q|=4 and |X|=3 (1 range + 2 edge variables).
func (h *Harness) varyEps() []setting {
	var s []setting
	for _, eps := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		s = append(s, setting{fmt.Sprintf("eps=%.1f", eps), workloadParams{
			dataset: gen.LKI, size: 4, rangeVars: 1, edgeVars: 2,
			numGroups: 2, tightness: 0.7, eps: eps,
			maxDomain: 10 * h.opts.maxDomain(),
		}})
	}
	return s
}

// varyRangeVars is the Fig. 9(c) setting: DBP while |X_L| varies from 2 to
// 5 (|Q|=4, |P|=2, ε=0.01).
func (h *Harness) varyRangeVars() []setting {
	var s []setting
	for _, xl := range []int{2, 3, 4, 5} {
		s = append(s, setting{fmt.Sprintf("|X_L|=%d", xl), workloadParams{
			dataset: gen.DBP, size: 4, rangeVars: xl, edgeVars: 1,
			numGroups: 2, tightness: 0.7, eps: 0.01,
			maxDomain: domainForRangeVars(xl, h.opts.maxDomain()),
		}})
	}
	return s
}

// varyEdgeVars is the Fig. 9(d) setting: LKI while |X_E| varies from 2 to
// 5 (|Q|=5, |P|=2, ε=0.01).
func (h *Harness) varyEdgeVars() []setting {
	var s []setting
	for _, xe := range []int{2, 3, 4, 5} {
		s = append(s, setting{fmt.Sprintf("|X_E|=%d", xe), workloadParams{
			dataset: gen.LKI, size: 5, rangeVars: 1, edgeVars: xe,
			numGroups: 2, tightness: 0.7, eps: 0.01,
			maxDomain: 4 * h.opts.maxDomain(),
		}})
	}
	return s
}

// varyCoverage is the Fig. 9(f) setting: DBP while the total coverage
// requirement C varies, with |P|=3 and C split evenly.
func (h *Harness) varyCoverage() []setting {
	base := h.opts.totalC()
	var s []setting
	for _, c := range []int{base * 3 / 5, base, base * 8 / 5, base * 12 / 5} {
		s = append(s, setting{fmt.Sprintf("C=%d", c), workloadParams{
			dataset: gen.DBP, size: 4, rangeVars: 2, edgeVars: 1,
			numGroups: 3, totalC: c, eps: 0.01,
			maxDomain: 2 * h.opts.maxDomain(),
		}})
	}
	return s
}

// varyGroups is the Fig. 9(g)/(h) setting: DBP while |P| varies from 2 to
// 5. Its |P|=2 workload is Fig. 9(e)'s.
func (h *Harness) varyGroups() []setting {
	var s []setting
	for _, p := range []int{2, 3, 4, 5} {
		s = append(s, setting{fmt.Sprintf("|P|=%d", p), workloadParams{
			dataset: gen.DBP, size: 4, rangeVars: 2, edgeVars: 1,
			numGroups: p, tightness: 0.7, eps: 0.01,
			maxDomain: 2 * h.opts.maxDomain(),
		}})
	}
	return s
}

// qualityRow is a Fig. 9(a)–(d) row: I_ε (Extra: time in seconds,
// verified instance count, result size, and I_R at λ_R = 0.5).
func (h *Harness) qualityRow(p workloadParams, res *core.Result) (Row, error) {
	front, divMax, covMax, err := h.reference(p)
	if err != nil {
		return Row{}, err
	}
	pts := res.Points()
	return Row{
		Value: pareto.EpsIndicator(pts, front, p.eps),
		Extra: map[string]float64{
			"sec":      res.Elapsed.Seconds(),
			"verified": float64(res.Stats.Verified),
			"size":     float64(len(res.Set)),
			"I_R":      pareto.RIndicator(pts, 0.5, divMax, covMax),
		},
	}, nil
}

// runtimeRow is a Fig. 10(a)–(d) row: the run's seconds, with
// verified/spawned/pruned counts so the pruning factors are visible next
// to the times. It is the same run as its Fig. 9 twin row's.
func (*Harness) runtimeRow(_ workloadParams, res *core.Result) (Row, error) {
	return Row{
		Value: res.Elapsed.Seconds(),
		Extra: map[string]float64{
			"verified": float64(res.Stats.Verified),
			"spawned":  float64(res.Stats.Spawned),
			"pruned":   float64(res.Stats.Pruned),
		},
	}, nil
}

// coverageRow is a Fig. 9(f) row: I_R (λ_R = 0.5).
func (h *Harness) coverageRow(p workloadParams, res *core.Result) (Row, error) {
	_, divMax, covMax, err := h.reference(p)
	if err != nil {
		return Row{}, err
	}
	return Row{
		Value: pareto.RIndicator(res.Points(), 0.5, divMax, covMax),
		Extra: map[string]float64{"feasible": float64(res.Stats.Feasible)},
	}, nil
}

// groupsRow is a Fig. 9(g)/(h) row: I_ε (Value) and I_R (Extra, λ_R =
// 0.5).
func (h *Harness) groupsRow(p workloadParams, res *core.Result) (Row, error) {
	front, divMax, covMax, err := h.reference(p)
	if err != nil {
		return Row{}, err
	}
	pts := res.Points()
	return Row{
		Value: pareto.EpsIndicator(pts, front, p.eps),
		Extra: map[string]float64{
			"I_R":      pareto.RIndicator(pts, 0.5, divMax, covMax),
			"feasible": float64(res.Stats.Feasible),
		},
	}, nil
}

// fig9e reproduces Fig. 9(e): anytime quality. For λ_R ∈ {0.1, 0.9} it
// replays RfQGen's and BiQGen's verification streams through a shadow
// archive and reports I_R after each decile of the explored instances.
func (h *Harness) fig9e() ([]Row, error) {
	p := h.varyGroups()[0].p
	_, divMax, covMax, err := h.reference(p)
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, alg := range []string{"RfQGen", "BiQGen"} {
		res, err := h.result(p, alg)
		if err != nil {
			return nil, err
		}
		shadow, n := pareto.NewArchive[int](p.eps), len(res.verified)
		for i, ev := range res.verified {
			if ev.Feasible {
				shadow.Update(ev.Point, 0)
			}
			for decile := 1; decile <= 10; decile++ {
				if max(n*decile/10-1, 0) != i {
					continue // I_R is read after each decile of the stream
				}
				x := fmt.Sprintf("%d%%", decile*10)
				rows = append(rows,
					Row{Series: alg + " λR=0.1", X: x, Value: pareto.RIndicator(shadow.Points(), 0.1, divMax, covMax)},
					Row{Series: alg + " λR=0.9", X: x, Value: pareto.RIndicator(shadow.Points(), 0.9, divMax, covMax)},
				)
			}
		}
	}
	return rows, nil
}
