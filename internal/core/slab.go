package core

import (
	"fmt"
	"time"

	"fairsqg/internal/pareto"
	"fairsqg/internal/query"
)

// SlabPlan is the partition of a template's instance lattice into disjoint
// slabs: the split variable is pinned to one of Levels per slab, and every
// instance of the lattice lives in exactly one slab. ParQGen explores the
// slabs concurrently in one process; the cluster coordinator ships them to
// worker daemons, which is why the plan — unlike the rest of a run's state
// — is a plain serializable value.
type SlabPlan struct {
	// SplitVar is the template variable index each slab pins, or -1 when
	// the template has no variables (the lattice is a single instance and
	// the plan has exactly one slab with level 0).
	SplitVar int `json:"splitVar"`
	// Levels holds one entry per slab: the pinned level of SplitVar
	// (query.Wildcard or a ladder index for range variables; 0/1 for edge
	// variables).
	Levels []int `json:"levels"`
}

// NumSlabs returns the number of slabs in the plan.
func (p SlabPlan) NumSlabs() int { return len(p.Levels) }

// PlanSlabs partitions the template's instance lattice along the variable
// with the most binding options. Slab sub-lattices are disjoint and each
// retains the monotonicity properties of Lemma 2, so per-slab
// infeasibility pruning stays sound regardless of which process executes
// the slab.
func PlanSlabs(t *query.Template) SlabPlan {
	splitVar := pickSplitVariable(t)
	if splitVar < 0 {
		return SlabPlan{SplitVar: -1, Levels: []int{0}}
	}
	var levels []int
	switch t.Vars[splitVar].Kind {
	case query.EdgeVar:
		levels = []int{0, 1}
	default:
		levels = append(levels, query.Wildcard)
		for l := range t.Vars[splitVar].Ladder {
			levels = append(levels, l)
		}
	}
	return SlabPlan{SplitVar: splitVar, Levels: levels}
}

// SlabEntry is one archived representative of a slab run, reduced to what
// crosses a process boundary: the instantiation, its rendered text, the
// answer size and the quality point. A coordinator merges entries from
// many workers through pareto.Archive.Update / Merge without ever needing
// the match sets themselves.
type SlabEntry struct {
	// Bindings is the instance's lattice coordinate (query.Instantiation).
	Bindings []int `json:"bindings"`
	// Text is the instance rendered in the template DSL.
	Text string `json:"text"`
	// Matches is |q(u_o, G)|.
	Matches int `json:"matches"`
	// Div and Cov are the quality coordinates (δ(q), f(q)).
	Div float64 `json:"div"`
	Cov float64 `json:"cov"`
}

// Point returns the entry's quality coordinates.
func (e SlabEntry) Point() pareto.Point { return pareto.Point{Div: e.Div, Cov: e.Cov} }

// SlabResult is the serializable outcome of one slab execution: the
// slab-local ε-Pareto archive (entries in deterministic insertion order —
// the slab's depth-first exploration order, which makes coordinator-side
// merges reproducible) plus the slab's work counters: the runner's own,
// which leave out the engine's and its cache's — on a long-lived worker
// those are cumulative across slabs and jobs, and stay on its /metrics.
type SlabResult struct {
	Entries []SlabEntry   `json:"entries"`
	Stats   Stats         `json:"stats"`
	Elapsed time.Duration `json:"elapsedNs"`
}

// RunSlab executes one slab of the instance lattice: the RfQGen
// depth-first strategy with splitVar pinned to level, archiving into a
// slab-local ε-Pareto archive. splitVar -1 pins nothing — the whole
// lattice, which under the no-variable plan is the single root instance.
// The execution is deterministic for a given configuration, so two
// processes running the same slab over the same graph produce identical
// results.
func (r *Runner) RunSlab(splitVar, level int) (*SlabResult, error) {
	if err := r.cfg.Validate(); err != nil {
		return nil, err
	}
	t := r.cfg.Template
	if splitVar != -1 {
		if splitVar < 0 || splitVar >= len(t.Vars) {
			return nil, fmt.Errorf("core: slab split variable %d out of range (template has %d variables)", splitVar, len(t.Vars))
		}
		if !validSlabLevel(t, splitVar, level) {
			return nil, fmt.Errorf("core: slab level %d invalid for variable %q", level, t.Vars[splitVar].Name)
		}
	}
	defer r.start()()
	start := time.Now()
	archive := newArchive(r.cfg.Eps)
	exploreSlab(r, splitVar, level, archive, noopLocker{})
	if err := r.err(); err != nil {
		return nil, err
	}
	res := &SlabResult{
		Entries: make([]SlabEntry, 0, archive.Len()),
		Stats:   r.stats,
		Elapsed: time.Since(start),
	}
	for _, e := range archive.Entries() {
		v := e.Payload
		res.Entries = append(res.Entries, SlabEntry{
			Bindings: append([]int(nil), v.Q.I...),
			Text:     v.Q.String(),
			Matches:  len(v.Matches),
			Div:      v.Point.Div,
			Cov:      v.Point.Cov,
		})
	}
	return res, nil
}

// validSlabLevel reports whether level is a legal pin for the variable.
func validSlabLevel(t *query.Template, vi, level int) bool {
	if t.Vars[vi].Kind == query.EdgeVar {
		return level == 0 || level == 1
	}
	return level == query.Wildcard || (level >= 0 && level < len(t.Vars[vi].Ladder))
}

// noopLocker satisfies sync.Locker for the single-goroutine walks (RfQGen,
// RunSlab), where exploreSlab's archive needs no real mutex.
type noopLocker struct{}

func (noopLocker) Lock()   {}
func (noopLocker) Unlock() {}
