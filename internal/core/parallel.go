package core

import (
	"runtime"
	"sync"
	"time"

	"fairsqg/internal/pareto"
	"fairsqg/internal/query"
)

// ParQGen is the parallel query generator the paper's conclusion sketches
// as future work: it partitions the instance lattice into slabs along the
// variable with the most binding options (each slab fixes that variable to
// one level) and explores the slabs concurrently with the RfQGen strategy.
// Slab sub-lattices are disjoint and each retains the monotonicity
// properties of Lemma 2, so per-slab infeasibility pruning stays sound;
// results merge through one mutex-guarded Update archive, which keeps the
// ε-Pareto invariant because Update is correct under any arrival order.
//
// workers <= 0 selects GOMAXPROCS. The result carries aggregated stats.
func (r *Runner) ParQGen(workers int) (*Result, error) {
	if err := r.cfg.Validate(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	defer r.start()()
	start := time.Now()
	plan := PlanSlabs(r.cfg.Template)
	if !r.cfg.DisableIncremental && len(r.extraNodes) == 0 && r.cfg.Evaluator == nil {
		r.seed(nil) // planned once, before the forks copy the runner
	}

	var mu sync.Mutex
	archive := newArchive(r.cfg.Eps)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		// Each worker explores on a fork of r: a private verification memo,
		// scorer scratch and counters over the one shared engine, warm
		// candidate cache and compiled scoring state.
		local := r.fork()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for level := range jobs {
				exploreSlab(local, plan.SplitVar, level, archive, &mu)
			}
			mu.Lock()
			r.stats.Add(local.stats)
			mu.Unlock()
		}()
	}
	for _, l := range plan.Levels {
		jobs <- l
	}
	close(jobs)
	wg.Wait()
	if err := r.err(); err != nil {
		return nil, err
	}
	return r.result(archive, start), nil
}

// pickSplitVariable selects the variable with the largest number of
// binding options, or -1 when the template has no variables.
func pickSplitVariable(t *query.Template) int {
	best, bestOpts := -1, 0
	for vi := range t.Vars {
		opts := 2 // edge variable: absent/present
		if t.Vars[vi].Kind == query.RangeVar {
			opts = len(t.Vars[vi].Ladder) + 1
		}
		if opts > bestOpts {
			best, bestOpts = vi, opts
		}
	}
	return best
}

// exploreSlab is the one depth-first refinement walker (RfQGen's strategy,
// Fig. 3). With splitVar >= 0 it stays inside one slab: the split variable
// is pinned to level and spawned children never touch it; splitVar -1 walks
// the whole lattice. The archive may be shared across goroutines (ParQGen:
// mu is a real mutex) or private (RfQGen, RunSlab: mu is a no-op locker).
//
// The walk keeps every instance on the current root-to-leaf path in the
// lineage at its depth, and cuts it once its subtree is walked.
func exploreSlab(r *Runner, splitVar, level int,
	archive *pareto.Archive[*Verified], mu sync.Locker) {
	t := r.cfg.Template
	visited := make(map[string]bool)
	var explore func(in query.Instantiation, parent *Verified, depth int)
	explore = func(in query.Instantiation, parent *Verified, depth int) {
		if r.err() != nil {
			return
		}
		// The key before the instance: a lattice node reached through a
		// second parent costs a map probe, not a projection.
		key := in.Key()
		if visited[key] {
			return
		}
		visited[key] = true
		r.stats.Spawned++
		v := r.verifySeeded(query.MustInstance(t, in), parent, depth)
		defer r.cut(depth)
		if !v.Feasible {
			r.stats.Pruned += query.NumRefineSteps(t, in)
			return
		}
		mu.Lock()
		r.update(archive, v)
		mu.Unlock()
		for _, child := range r.spawn(v) {
			if splitVar >= 0 && child[splitVar] != level {
				continue // stay inside the slab
			}
			explore(child, v, depth+1)
		}
	}
	rootIn := query.Root(t)
	if splitVar >= 0 {
		rootIn[splitVar] = level
	}
	explore(rootIn, nil, 0)
}
