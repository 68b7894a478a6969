package core

import (
	"time"

	"fairsqg/internal/pareto"
	"fairsqg/internal/query"
)

// EnumerateInstantiations walks the full instance space I(Q) — the
// cartesian product of every variable's binding options (wildcard plus each
// ladder value for range variables; absent/present for edge variables) —
// invoking yield for each. Enumeration stops early when yield returns
// false. The instantiation passed to yield is reused; clone it to retain.
func EnumerateInstantiations(t *query.Template, yield func(query.Instantiation) bool) {
	options := make([][]int, len(t.Vars))
	for vi := range t.Vars {
		v := &t.Vars[vi]
		switch v.Kind {
		case query.EdgeVar:
			options[vi] = []int{0, 1}
		case query.RangeVar:
			opts := make([]int, 0, len(v.Ladder)+1)
			opts = append(opts, query.Wildcard)
			for l := range v.Ladder {
				opts = append(opts, l)
			}
			options[vi] = opts
		}
	}
	in := make(query.Instantiation, len(t.Vars))
	var rec func(vi int) bool
	rec = func(vi int) bool {
		if vi == len(t.Vars) {
			return yield(in)
		}
		for _, o := range options[vi] {
			in[vi] = o
			if !rec(vi + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
}

// enumerate is the one enumerate-and-verify walk behind EnumQGen, Kungs,
// AllFeasible and CBM: it verifies every instance of I(Q) in
// EnumerateInstantiations order and passes the feasible ones to visit. It
// ends early, with the context's error, when the run is cancelled.
//
// That order is depth-first over the variables, and the first leaf under a
// prefix binds every later variable to its root level: it is the loosest
// instance of the prefix, and everything enumerated under the prefix refines
// it. The lineage keeps that instance at depth d for the prefix ending at
// variable d-1 of the current instantiation (depth 0: the root), so an
// instance takes within set, scoring parent and seed from the newest link —
// its nearest kept ancestor, itself with its last bound variable back at the
// root level. Nothing is kept for an empty plan or a bound veto, nor for an
// instantiation the memo already had; every link is cut when the walk returns.
func (r *Runner) enumerate(visit func(v *Verified)) error {
	t := r.cfg.Template
	root := query.Root(t)
	defer r.cut(0)
	EnumerateInstantiations(t, func(in query.Instantiation) bool {
		if r.err() != nil {
			return false
		}
		r.stats.Spawned++
		// depth is one past the last variable bound off its root level: the
		// slot this instance fills, above everything it refines on the path.
		depth := len(in)
		for depth > 0 && in[depth-1] == root[depth-1] {
			depth--
		}
		r.cut(depth)
		q := query.MustInstance(t, in)
		if _, ok := r.cache[q.Key()]; ok {
			// An instantiation the memo already answers costs no
			// verification: it counts as pruned and holds nothing.
			r.stats.Pruned++
			return true
		}
		keep := depth
		if depth == len(in) {
			keep = noKeep // nothing enumerates under a prefix of full length
		}
		var parent *Verified // the newest link's record
		if n := len(r.lin.links); n > 0 {
			parent = r.lin.links[n-1].v
		}
		v := r.verifySeeded(q, parent, keep)
		if v.Feasible {
			visit(v)
		}
		return true
	})
	return r.err()
}

// enumerateFeasible collects the feasible instances of I(Q).
func (r *Runner) enumerateFeasible() ([]*Verified, error) {
	var feasible []*Verified
	err := r.enumerate(func(v *Verified) { feasible = append(feasible, v) })
	if err != nil {
		return nil, err
	}
	return feasible, nil
}

// EnumQGen is the baseline of Theorem 1: it enumerates up to
// 2^|X_E| · |adom_m|^|X_L| instances, verifies every one, and applies the
// Update procedure (the nested-loop ε-Pareto computation) over the feasible
// ones. Each verification inherits from the enumeration prefix (enumerate);
// Config.DisableIncremental gives the paper's naive version, every instance
// from scratch.
func (r *Runner) EnumQGen() (*Result, error) {
	defer r.start()()
	start := time.Now()
	archive := newArchive(r.cfg.Eps)
	if err := r.enumerate(func(v *Verified) { r.update(archive, v) }); err != nil {
		return nil, err
	}
	return r.result(archive, start), nil
}

// Kungs enumerates and verifies the full instance space and computes the
// exact Pareto instance set with Kung's algorithm — the quality reference
// of the paper's evaluation (its I_ε is 1 by construction).
func (r *Runner) Kungs() (*Result, error) {
	defer r.start()()
	start := time.Now()
	feasible, err := r.enumerateFeasible()
	if err != nil {
		return nil, err
	}
	points := make([]pareto.Point, len(feasible))
	for i, v := range feasible {
		points[i] = v.Point
	}
	front := pareto.Kung(points)
	set := make([]*Verified, 0, len(front))
	for _, idx := range front {
		set = append(set, feasible[idx])
	}
	return &Result{
		Set:     set,
		Eps:     0,
		Stats:   r.Stats(),
		Elapsed: time.Since(start),
	}, nil
}

// AllFeasible enumerates and verifies the full instance space and returns
// every feasible instance — the reference set I(Q) that indicators are
// computed against in the experiments.
func (r *Runner) AllFeasible() ([]*Verified, error) {
	defer r.start()()
	return r.enumerateFeasible()
}
