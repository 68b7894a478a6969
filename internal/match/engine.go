package match

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fairsqg/internal/graph"
	"fairsqg/internal/measure"
	"fairsqg/internal/query"
)

// EngineOptions configures NewEngine.
type EngineOptions struct {
	// Settings is stamped onto every pooled matcher.
	Settings
}

// EngineStats aggregates the work done through an Engine.
type EngineStats struct {
	// Stats sums the counters of every matcher the engine has driven.
	Stats
	// Cache reports the candidate-list lookups of the engine's matchers.
	Cache CacheStats
	// Dist.Evals counts the tuple-distance evaluations of the runs scored
	// on this engine (AddDistEvals). The default tuple distance is evaluated
	// directly, never cached, so the hit/miss/clear counters read 0.
	Dist measure.PairCacheStats
	// DomainsHeld is a gauge, not a counter: the Domains buffers handed out
	// by ParEvalOutputSeeded and not yet released. It reads 0 whenever no
	// refinement walk is in flight; anything else on an idle engine is a
	// walker that lost a buffer.
	DomainsHeld int
	// Shared reports what the runs on this engine left each other (Store).
	Shared StoreStats
}

// Clocks are the wall time evaluations took planning and searching, summed
// over goroutines, for whoever made them: an evaluation whose context
// carries Clocks (WithClocks) adds its own to them.
type Clocks struct{ Plan, Search atomic.Int64 }

type clocksKey struct{}

// WithClocks returns ctx carrying c to the evaluations made under it.
func WithClocks(ctx context.Context, c *Clocks) context.Context {
	return context.WithValue(ctx, clocksKey{}, c)
}

// Engine is a concurrent match engine over one frozen graph: it owns a
// store, bounded in bytes, of what its evaluations share (candidate lists,
// answers, derived values) and a free list of per-goroutine Matcher scratch
// states. Each evaluation runs on its caller's goroutine with one
// matcher from the list, so its results and counters are the sequential
// Matcher's (the reference implementation).
//
// An Engine is safe for concurrent use: any number of goroutines may call
// ParEval* simultaneously.
type Engine struct {
	g        *graph.Graph
	settings Settings
	// store is what this generation's runs share; cache is its matchers'
	// view of it (Matcher.Cache), counting their candidate-list lookups.
	store Store
	cache CandidateCache

	// mu guards the free lists and stats. The lists are the engine's own,
	// not the sync package's pool: a pool registers itself in a
	// runtime-global list, which keeps a dropped engine's matchers — and
	// through Matcher.G the whole retired graph generation — reachable for
	// two further GC cycles. freeDoms holds the Domains buffers not handed
	// out; domsHeld counts those that are.
	mu       sync.Mutex
	free     []*Matcher
	freeDoms []*Domains
	domsHeld int
	stats    Stats

	distEvals atomic.Int64
}

// NewEngine returns an engine over a frozen graph.
func NewEngine(g *graph.Graph, opts EngineOptions) *Engine {
	if !g.Frozen() {
		panic("match: graph must be frozen")
	}
	e := &Engine{g: g, settings: opts.Settings}
	e.store.stats.Ceiling = storeBytesPerNode * int64(g.NumNodes())
	e.cache.store, e.cache.weighBytes = &e.store, true
	return e
}

// Graph returns the engine's frozen graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Settings returns the matcher settings every evaluation on this engine
// runs under.
func (e *Engine) Settings() Settings { return e.settings }

// AddDistEvals records n tuple-distance evaluations made by a run scoring
// on this engine, so a long-lived engine reports its jobs' scoring work
// next to their matching work.
func (e *Engine) AddDistEvals(n int64) { e.distEvals.Add(n) }

// Stats returns a snapshot of the engine's aggregated counters. Work done
// by matchers currently mid-evaluation is included only once they finish.
func (e *Engine) Stats() EngineStats {
	s := EngineStats{Dist: measure.PairCacheStats{Evals: e.distEvals.Load()}}
	e.mu.Lock()
	s.Stats, s.DomainsHeld = e.stats, e.domsHeld
	e.mu.Unlock()
	s.Cache, s.Shared = e.cache.Stats(), e.store.Stats()
	return s
}

// acquire checks a Matcher out of the free list, bound to ctx; the list
// grows to the engine's peak concurrency.
func (e *Engine) acquire(ctx context.Context) *Matcher {
	e.mu.Lock()
	var m *Matcher
	if n := len(e.free); n > 0 {
		m, e.free = e.free[n-1], e.free[:n-1]
	}
	e.mu.Unlock()
	if m == nil {
		m = New(e.g)
		m.Settings, m.Cache = e.settings, &e.cache
	}
	m.BindContext(ctx)
	return m
}

// release folds a Matcher's counters into the engine aggregate and returns
// it to the free list.
func (e *Engine) release(m *Matcher) {
	m.BindContext(nil)
	e.mu.Lock()
	e.stats.Add(m.Stats)
	m.Stats = Stats{}
	e.free = append(e.free, m)
	e.mu.Unlock()
}

// holdDomains hands out a Domains buffer filled with the candidate sets of
// p, a plan m has propagated, under a within set or not; the list grows to
// the deepest refinement path walked at once.
func (e *Engine) holdDomains(m *Matcher, p *plan, narrowed bool) *Domains {
	e.mu.Lock()
	var d *Domains
	if n := len(e.freeDoms); n > 0 {
		d, e.freeDoms = e.freeDoms[n-1], e.freeDoms[:n-1]
	}
	e.domsHeld++
	e.mu.Unlock()
	if d == nil {
		d = &Domains{owner: e}
	}
	d.capture(m, p, narrowed)
	return d
}

// ReleaseDomains gives d, held from ParEvalOutputSeeded or PlanDomains,
// back to the engine for reuse; nil is a no-op. The caller must not use d
// afterwards. A released buffer drops its instance, whose compiled literals
// pin the graph. Only a walker that outlived its engine's generation can
// hand in another engine's buffer, so that panics.
func (e *Engine) ReleaseDomains(d *Domains) {
	if d == nil {
		return
	}
	if d.owner != e {
		panic("match: Domains released to an engine that did not hand it out")
	}
	d.q = nil
	e.mu.Lock()
	e.freeDoms = append(e.freeDoms, d)
	e.domsHeld--
	e.mu.Unlock()
}

// Adopt moves old's free matchers and Domains buffers to e, the engine that
// replaces it over the graph's next generation (core.Runner.Retarget), so a
// run that re-verifies every generation does not build them again. A matcher
// re-captures e's graph and keeps its arenas. A free buffer names no instance
// and capture rewrites every set it then reads, so only its owner changes:
// old refuses it from now on. What old has out stays old's.
func (e *Engine) Adopt(old *Engine) {
	old.mu.Lock()
	ms, ds := old.free, old.freeDoms
	old.free, old.freeDoms = nil, nil
	old.mu.Unlock()
	for _, m := range ms {
		m.rebind(e.g)
		m.Settings, m.Cache = e.settings, &e.cache
	}
	for _, d := range ds {
		d.owner = e
	}
	e.mu.Lock()
	e.free, e.freeDoms = append(e.free, ms...), append(e.freeDoms, ds...)
	e.mu.Unlock()
}

// ParEvalNodeFiltered evaluates q at a template node, mirroring
// Matcher.EvalNodeFiltered; it returns ctx's error when the evaluation was
// cancelled before completing.
func (e *Engine) ParEvalNodeFiltered(ctx context.Context, q *query.Instance, node int, within []graph.NodeID,
	accept func(candidates []graph.NodeID) bool) (matches []graph.NodeID, ok bool, err error) {
	matches, ok, _, err = e.eval(ctx, q, node, within, accept, nil, false, "")
	return matches, ok, err
}

// ParEvalOutputSeeded is ParEvalNodeFiltered at q's output node, for a walk
// down the refinement lattice. seed, when non-nil, is the Domains held from
// the evaluation of an instance q refines — its parent or any ancestor: the
// plan starts from those candidate sets instead of the label populations
// and reaches the same fixpoint, so matches, ok and the search are what a
// nil seed gives (a seed q does not refine is ignored, and so is one
// captured under a within set when within is nil here). A seed captured
// under a within set serves evaluations within that set only, which is what
// a walk passes anyway — the matches of an instance between the seed's and
// q; the two sets are not compared. hold asks for q's own domains: held is
// non-nil when the evaluation got past accept with a non-empty plan, and
// must go back through ReleaseDomains. key, when not empty, is q's AnswerKey:
// a whole answer — not vetoed by accept or cut short by ctx, on an engine
// without a MaxBacktrackNodes budget — stays in the store for the next run.
func (e *Engine) ParEvalOutputSeeded(ctx context.Context, q *query.Instance, within []graph.NodeID,
	accept func(candidates []graph.NodeID) bool, seed *Domains, hold bool, key string) (matches []graph.NodeID, ok bool, held *Domains, err error) {
	return e.eval(ctx, q, q.T.Output, within, accept, seed, hold, key)
}

// PlanDomains plans q at its output node without searching the plan and
// hands out the domains it ended propagation with: the seed of every
// refinement of q, which for the root instance is every instance of the
// template. It is no evaluation (Evals does not move); nil means
// the plan came out empty, or ctx fired. The caller owes a non-nil result to
// ReleaseDomains.
func (e *Engine) PlanDomains(ctx context.Context, q *query.Instance) *Domains {
	planner := e.acquire(ctx)
	defer e.release(planner)
	p := planner.buildPlan(q, q.T.Output, nil, nil)
	if p == nil {
		return nil
	}
	return e.holdDomains(planner, p, false)
}

// eval is the one evaluation path behind every ParEval* entry point. The
// planner's matcher also checks the plan's root candidates, on the calling
// goroutine: runs and jobs sharing the engine are what fill the processors.
func (e *Engine) eval(ctx context.Context, q *query.Instance, node int, within []graph.NodeID,
	accept func(candidates []graph.NodeID) bool, seed *Domains, hold bool, key string) (matches []graph.NodeID, ok bool, held *Domains, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	planner := e.acquire(ctx)
	defer e.release(planner)
	planner.Stats.Evals++
	if !q.NodeActive(node) {
		return nil, true, nil, nil
	}
	if seed != nil && seed.owner != e {
		seed = nil // another engine's: positions in another generation's labels
	}
	clk, _ := ctx.Value(clocksKey{}).(*Clocks)
	start := time.Now()
	p := planner.buildPlan(q, node, within, seed)
	if clk != nil {
		clk.Plan.Add(int64(time.Since(start)))
	}
	if p == nil {
		if err = ctx.Err(); err == nil {
			e.keep(key, nil)
		}
		return nil, true, nil, err
	}
	rootCands := p.cands[p.rootIdx]
	if accept != nil && !accept(rootCands) {
		return nil, false, nil, nil
	}
	if hold {
		held = e.holdDomains(planner, p, within != nil)
	}
	if len(p.nodes) == 1 {
		// The candidates are the plan's (see Matcher.EvalNodeFiltered).
		matches = sortedCopy(rootCands)
		e.keep(key, matches)
		return matches, true, held, nil
	}
	start = time.Now()
	matches = planner.embedAll(p, rootCands)
	if clk != nil {
		clk.Search.Add(int64(time.Since(start)))
	}
	if err = ctx.Err(); err != nil {
		e.ReleaseDomains(held)
		return nil, false, nil, err
	}
	e.keep(key, matches)
	return matches, true, held, nil
}

// keep leaves a whole answer in the store under key; "" keeps nothing, nor
// does an engine under a MaxBacktrackNodes budget: what it finds depends on
// the (possibly truncated) parent answer it searched within, not on q alone.
func (e *Engine) keep(key string, matches []graph.NodeID) {
	if key != "" && e.settings.MaxBacktrackNodes == 0 {
		e.store.put(key, matches, 4*int64(cap(matches))+int64(len(key))+storeEntryBytes)
	}
}

// sortedCopy returns ids in ascending order in memory of its own.
func sortedCopy(ids []graph.NodeID) []graph.NodeID {
	out := append([]graph.NodeID(nil), ids...)
	sortIDs(out)
	return out
}

// sortIDs restores ascending order. Candidate lists come off the label
// index in ascending NodeID order, so in practice this is a linear
// verification; the sort fallback covers caller-supplied unsorted
// within-sets.
func sortIDs(ids []graph.NodeID) {
	for i := 1; i < len(ids); i++ {
		if ids[i] < ids[i-1] {
			sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
			return
		}
	}
}
