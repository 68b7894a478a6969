package core

import (
	"fmt"
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
	r.resetStats()
	start := time.Now()
	plan := PlanSlabs(r.cfg.Template)
	if plan.SplitVar < 0 {
		// No variables at all: a single instance.
		res, err := r.RfQGen()
		if err != nil {
			return nil, err
		}
		res.Elapsed = time.Since(start)
		return res, nil
	}

	var (
		mu      sync.Mutex
		archive = pareto.NewArchive[*Verified](r.cfg.Eps)
		total   Stats
		firstMu sync.Mutex
		callErr error
	)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns an independent Runner (the sequential matcher
			// scratch and the verification cache are not safe for concurrent
			// use) but adopts the parent's engine and candidate cache, which
			// are: slab workers share one warm filter cache and one pool of
			// matcher scratch states.
			local, err := NewRunner(r.cfg)
			if err != nil {
				firstMu.Lock()
				if callErr == nil {
					callErr = err
				}
				firstMu.Unlock()
				return
			}
			local.adoptEngine(r)
			sp := newSpawner(local)
			for level := range jobs {
				exploreSlab(local, sp, plan.SplitVar, level, archive, &mu)
			}
			mu.Lock()
			// Sum the worker-private counters only; shared engine/cache
			// counters are folded in once after all workers finish.
			total.Spawned += local.stats.Spawned
			total.Verified += local.stats.Verified
			total.Feasible += local.stats.Feasible
			total.Pruned += local.stats.Pruned
			total.IncScores += local.stats.IncScores
			total.DistCache.Evals += local.stats.DistCache.Evals
			total.Matcher.Add(local.matcher.Stats)
			mu.Unlock()
		}()
	}
	for _, l := range plan.Levels {
		jobs <- l
	}
	close(jobs)
	wg.Wait()
	if callErr != nil {
		return nil, fmt.Errorf("core: ParQGen worker: %w", callErr)
	}
	if err := r.err(); err != nil {
		return nil, err
	}
	if r.engine != nil {
		es := r.engine.Stats()
		total.Matcher.Add(es.Matcher())
		total.Cache = es.Cache
	} else if r.matcher.Cache != nil {
		total.Cache = r.matcher.Cache.Stats()
	}
	if r.pairCache != nil {
		// A custom distance: workers share the parent's pair cache through
		// adoptEngine, so one snapshot covers every slab's evaluations.
		total.DistCache = r.pairCache.Stats()
	}
	mu.Lock()
	set := collectSet(archive)
	mu.Unlock()
	return &Result{
		Set:     set,
		Eps:     r.cfg.Eps,
		Stats:   total,
		Elapsed: time.Since(start),
	}, nil
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

// exploreSlab runs the RfQGen depth-first strategy inside one slab: the
// split variable is pinned to level, and spawned children never touch it.
// The archive may be shared across goroutines (ParQGen: mu is a real
// mutex) or slab-private (RunSlab: mu is a no-op locker).
func exploreSlab(r *Runner, sp *spawner, splitVar, level int,
	archive *pareto.Archive[*Verified], mu sync.Locker) {
	t := r.cfg.Template
	visited := make(map[string]bool)
	var explore func(in query.Instantiation, parent *Verified)
	explore = func(in query.Instantiation, parent *Verified) {
		if r.err() != nil {
			return
		}
		q := query.MustInstance(t, in)
		if visited[q.Key()] {
			return
		}
		visited[q.Key()] = true
		r.stats.Spawned++
		v := r.verify(q, parent)
		if !v.Feasible {
			r.stats.Pruned += len(query.RefineSteps(t, in))
			return
		}
		mu.Lock()
		archive.Update(v.Point, v)
		mu.Unlock()
		for _, child := range sp.refine(v) {
			if child[splitVar] != level {
				continue // stay inside the slab
			}
			explore(child, v)
		}
	}
	rootIn := query.Root(t)
	rootIn[splitVar] = level
	explore(rootIn, nil)
}
