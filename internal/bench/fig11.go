package bench

import (
	"fmt"

	"fairsqg/internal/core"
	"fairsqg/internal/gen"
	"fairsqg/internal/pareto"
)

// onlineParams is the Exp-3 setting: the LKI dataset with a fixed template
// whose random instantiations form the instance stream.
func (h *Harness) onlineParams() workloadParams {
	return workloadParams{
		dataset: gen.LKI, size: 4, rangeVars: 2, edgeVars: 1,
		numGroups: 2, tightness: 0.7, eps: 0.05,
		maxDomain: 2 * h.opts.maxDomain(),
	}
}

// fig11a reproduces Fig. 11(a): OnlineQGen's delay to process a batch of
// instances, varying k from 5 to 20 with (batch, window) ∈
// {(40, 10), (80, 40)}. Value is the mean per-batch delay in milliseconds.
func (h *Harness) fig11a() ([]Row, error) {
	base, err := h.workload(h.onlineParams())
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, bw := range []struct{ batch, window int }{{40, 10}, {80, 40}} {
		for _, k := range []int{5, 10, 15, 20} {
			r, err := core.NewRunner(base)
			if err != nil {
				return nil, err
			}
			stream := core.NewRandomStream(base.Template, h.opts.streamLen(), h.opts.Seed+11)
			res, err := r.OnlineQGen(stream, core.OnlineOptions{
				K: k, Window: bw.window, InitialEps: base.Eps,
			})
			if err != nil {
				return nil, err
			}
			// Aggregate per-instance delays into batches.
			total := 0.0
			batches := 0
			cur := 0.0
			for i, d := range res.Delays {
				cur += d.Seconds()
				if (i+1)%bw.batch == 0 {
					total += cur
					batches++
					cur = 0
				}
			}
			if batches == 0 {
				batches, total = 1, cur
			}
			rows = append(rows, Row{
				Series: fmt.Sprintf("batch=%d w=%d", bw.batch, bw.window),
				X:      fmt.Sprintf("k=%d", k),
				Value:  total / float64(batches) * 1000, // ms per batch
				Extra: map[string]float64{
					"finalEps": res.Eps,
					"size":     float64(len(res.Set)),
				},
			})
		}
	}
	return rows, nil
}

// fig11b reproduces Fig. 11(b): OnlineQGen's anytime effectiveness — I_ε
// of the maintained set against the feasible instances seen so far — for
// k ∈ {10, 20} and w ∈ {40, 80}, sampled at eight checkpoints across the
// stream.
func (h *Harness) fig11b() ([]Row, error) {
	base, err := h.workload(h.onlineParams())
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, kw := range []struct{ k, window int }{{10, 40}, {10, 80}, {20, 40}, {20, 80}} {
		cfg := *base
		var seen []pareto.Point
		cfg.OnVerified = func(ev core.VerifyEvent) {
			if ev.Feasible {
				seen = append(seen, ev.Point)
			}
		}
		r, err := core.NewRunner(&cfg)
		if err != nil {
			return nil, err
		}
		series := fmt.Sprintf("k=%d w=%d", kw.k, kw.window)
		every := h.opts.streamLen() / 8
		if every < 1 {
			every = 1
		}
		stream := core.NewRandomStream(base.Template, h.opts.streamLen(), h.opts.Seed+13)
		_, err = r.OnlineQGen(stream, core.OnlineOptions{
			K: kw.k, Window: kw.window, InitialEps: cfg.Eps,
			CheckpointEvery: every,
			OnCheckpoint: func(cp core.OnlineCheckpoint) {
				rows = append(rows, Row{
					Series: series,
					X:      fmt.Sprintf("n=%d", cp.Processed),
					Value:  pareto.EpsIndicator(cp.Points, seen, cp.Eps),
					Extra:  map[string]float64{"eps": cp.Eps, "size": float64(len(cp.Points))},
				})
			},
		})
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}
