package core

import (
	"time"

	"fairsqg/internal/pareto"
)

// CBMOptions parameterizes the constraint-based baseline.
type CBMOptions struct {
	// Separation is the minimum vertical (coverage) distance between
	// consecutive anchor points; bisection stops below it. Defaults to
	// ε·C when zero.
	Separation float64
	// MaxAnchors bounds the result size (0 = unbounded).
	MaxAnchors int
}

// CBM implements the constraint-based bi-objective baseline [Chircop &
// Zammit-Mangion]: it verifies the instance space, finds the two anchor
// instances that individually maximize diversity and coverage, and then
// repeatedly bisects the coverage interval between adjacent anchors,
// solving the ε-constraint problem "maximize δ(q) subject to f(q) ≥ mid"
// for each midpoint. Every constrained solve rescans the feasible
// instances — the more expensive bi-level iteration the paper observes
// makes CBM slower than Kungs.
func (r *Runner) CBM(opts CBMOptions) (*Result, error) {
	defer r.start()()
	start := time.Now()
	feasible, err := r.enumerateFeasible()
	if err != nil {
		return nil, err
	}
	if len(feasible) == 0 {
		return &Result{Eps: r.cfg.Eps, Stats: r.Stats(), Elapsed: time.Since(start)}, nil
	}
	sep := opts.Separation
	if sep <= 0 {
		sep = r.cfg.Eps * r.CovMax()
		if sep <= 0 {
			sep = 1
		}
	}
	// Anchor 1: maximize diversity; Anchor 2: maximize coverage.
	maxDiv := feasible[0]
	maxCov := feasible[0]
	for _, v := range feasible[1:] {
		if v.Point.Div > maxDiv.Point.Div {
			maxDiv = v
		}
		if v.Point.Cov > maxCov.Point.Cov {
			maxCov = v
		}
	}
	anchors := map[string]*Verified{maxDiv.Q.Key(): maxDiv, maxCov.Q.Key(): maxCov}

	// maximizeDivSubjectTo scans for argmax δ among instances with f ≥ bound.
	maximizeDivSubjectTo := func(bound float64) *Verified {
		var best *Verified
		for _, v := range feasible {
			if v.Point.Cov < bound {
				continue
			}
			if best == nil || v.Point.Div > best.Point.Div {
				best = v
			}
		}
		return best
	}

	type segment struct{ lo, hi float64 }
	stack := []segment{{lo: maxDiv.Point.Cov, hi: maxCov.Point.Cov}}
	for len(stack) > 0 {
		if opts.MaxAnchors > 0 && len(anchors) >= opts.MaxAnchors {
			break
		}
		seg := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seg.hi-seg.lo <= sep {
			continue
		}
		mid := (seg.lo + seg.hi) / 2
		m := maximizeDivSubjectTo(mid)
		if m == nil {
			continue
		}
		if _, seen := anchors[m.Q.Key()]; !seen {
			anchors[m.Q.Key()] = m
		}
		stack = append(stack, segment{lo: seg.lo, hi: mid}, segment{lo: mid, hi: seg.hi})
	}

	// Keep only mutually non-dominated anchors, presented like the other
	// algorithms' results.
	var list []*Verified
	for _, v := range anchors {
		list = append(list, v)
	}
	points := make([]pareto.Point, len(list))
	for i, v := range list {
		points[i] = v.Point
	}
	var set []*Verified
	for _, idx := range pareto.NaiveParetoSet(points) {
		set = append(set, list[idx])
	}
	archive := newArchive(r.cfg.Eps)
	for _, v := range set {
		r.update(archive, v)
	}
	return r.result(archive, start), nil
}
