package core

import (
	"cmp"
	"context"
	"slices"
	"sort"
	"time"

	"fairsqg/internal/graph"
	"fairsqg/internal/groups"
	"fairsqg/internal/match"
	"fairsqg/internal/measure"
	"fairsqg/internal/pareto"
	"fairsqg/internal/query"
)

// Runner owns the shared evaluation state of one generation run: the match
// engine, the diversity/coverage scorers and the verification cache. All
// algorithms in this package are methods on Runner so repeated runs over
// one configuration reuse the cache only when the caller wants it (each
// algorithm entry point starts a fresh Runner unless invoked on one).
type Runner struct {
	cfg *Config
	// ctx is the run's cancellation context (cfg.Ctx, or Background when
	// unset). Algorithms poll it between verifications; the engine polls it
	// inside the backtracking search, and adds its plan and search time to
	// the clocks ctx carries, forks' included.
	ctx    context.Context
	clocks *match.Clocks
	// engine evaluates every instance: Config.Engine when injected, else a
	// run-owned one (see newEngine).
	engine *match.Engine
	// div is this runner's evaluator (it counts and keeps kernel scratch,
	// so ParQGen workers each take their own over the shared features).
	div *measure.Diversity
	// pairCache memoizes a caller-supplied Config.Distance, whose cost is
	// opaque and which Wrap pins to one answer per pair; nil for the
	// default tuple distance, which is cheaper to evaluate than to look up.
	pairCache *measure.PairCache
	// counter answers per-group count queries over answers in O(|answer|)
	// via a dense node→group array; built once per Runner.
	counter *groups.Counter
	cache   map[string]*Verified
	// answered lists the memo's records with an answer, oldest first (parentOf).
	answered []*Verified
	// lin holds every matcher domain the run keeps, on engine.
	lin lineage
	// stats holds the run's own counters; stats.Matcher is what engines
	// replaced by Retarget had counted (Stats adds the live engine's).
	stats  Stats
	verSeq int
	// derivedReused and deriveWall are what bind did — its hits in an
	// injected engine's store, its clock — for the next run to report
	// (Retarget's, for the current one).
	derivedReused int
	deriveWall    time.Duration
	// extraNodes are the resolved multi-output template node indices.
	extraNodes []int
	// population is |V_uo| (summed over distinct output labels in
	// multi-output mode); kept with the resolved scoring functions so the
	// evaluator can be rebound on reset.
	population int
	scoreRel   measure.RelevanceFunc
	// scoreFeats is the compiled default tuple distance; nil when the
	// caller supplied Config.Distance.
	scoreFeats *measure.DistanceFeatures
	// ownedG is the graph generation adopted from a MutationSource during
	// OnlineQGen, released by Close (generations from Retarget itself stay
	// caller-owned).
	ownedG *graph.Graph
}

// NewRunner validates the configuration and prepares shared state.
func NewRunner(cfg *Config) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	r := &Runner{cfg: cfg, clocks: new(match.Clocks)}
	r.ctx = match.WithClocks(ctx, r.clocks)
	for _, name := range cfg.ExtraOutputs {
		r.extraNodes = append(r.extraNodes, cfg.Template.Node(name))
	}
	r.engine = r.newEngine()
	r.bind()
	return r, nil
}

// bind builds everything but the engine that the runner derives from
// r.cfg.G — group counter, population, scoring — and starts an empty
// verification memo. NewRunner binds a fresh runner; Retarget rebinds one to
// the next generation.
func (r *Runner) bind() {
	defer func(t time.Time) { r.deriveWall += time.Since(t) }(time.Now())
	cfg := r.cfg
	r.counter = groups.NewCounter(cfg.G.NumNodes(), cfg.Groups)

	outLabel := cfg.Template.Nodes[cfg.Template.Output].Label
	r.population = cfg.G.CountLabel(outLabel)
	seen := map[string]bool{outLabel: true}
	for _, ni := range r.extraNodes {
		if l := cfg.Template.Nodes[ni].Label; !seen[l] {
			seen[l] = true
			r.population += cfg.G.CountLabel(l)
		}
	}
	if cfg.Evaluator != nil {
		r.population = cfg.Evaluator.Population()
	}
	r.cache, r.answered = make(map[string]*Verified), nil
	r.initScoring()
}

// newEngine returns the engine the run evaluates on over r.cfg.G: the
// injected Config.Engine, else a run-owned one under the run's settings.
func (r *Runner) newEngine() *match.Engine {
	if r.cfg.Engine != nil {
		return r.cfg.Engine
	}
	return match.NewEngine(r.cfg.G, match.EngineOptions{Settings: r.cfg.Settings})
}

// initScoring resolves the scoring functions once per Runner: the
// relevance function and, unless the caller supplied a distance, the
// default tuple distance feature-compiled from the columnar storage; then
// builds the evaluator via bindScoring.
func (r *Runner) initScoring() {
	cfg := r.cfg
	outLabel := cfg.Template.Nodes[cfg.Template.Output].Label
	r.scoreRel = cfg.Relevance
	if r.scoreRel == nil {
		r.scoreRel = derive(r, "relevance", []string{outLabel}, func() (measure.RelevanceFunc, int64) {
			return measure.DegreeRelevance(cfg.G, outLabel), 64
		})
	}
	r.scoreFeats = nil
	if cfg.Distance == nil {
		r.scoreFeats = derive(r, "features", cfg.DistanceAttrs, func() (*measure.DistanceFeatures, int64) {
			f := measure.NewDistanceFeatures(cfg.G, cfg.DistanceAttrs)
			return f, f.Bytes()
		})
	}
	r.bindScoring()
}

// derive returns what build computes from the run's generation, kind and spec
// — read-only — through an injected engine's store (match.Engine.Derived).
func derive[T any](r *Runner, kind string, spec []string, build func() (T, int64)) T {
	v, hit := r.cfg.Engine.Derived(kind, spec, func() (any, int64) { return build() })
	if hit {
		r.derivedReused++
	}
	return v.(T)
}

// bindScoring (re)builds the Diversity evaluator: directly over the
// compiled features for the default tuple distance, through a fresh
// run-private pair cache for a caller-supplied one. Zero-valued knobs
// select documented defaults through explicit sentinels: MaxPairs < 0
// means exact (no sampling cap) and LambdaSet marks λ = 0 as a deliberate
// pure-relevance request — the previous code silently rewrote both zeros.
func (r *Runner) bindScoring() {
	cfg := r.cfg
	maxPairs := cfg.MaxPairs
	switch {
	case maxPairs < 0:
		maxPairs = 0 // exact: Diversity treats 0 as "no sampling cap"
	case maxPairs == 0:
		maxPairs = DefaultMaxPairs
	}
	lambda := 0.5
	if cfg.Lambda != 0 || cfg.LambdaSet {
		lambda = cfg.Lambda
	}
	r.div = &measure.Diversity{
		Lambda:          lambda,
		Relevance:       r.scoreRel,
		Features:        r.scoreFeats,
		LabelPopulation: r.population,
		MaxPairs:        maxPairs,
	}
	r.pairCache = nil
	if cfg.Distance != nil {
		r.pairCache = measure.NewPairCache(0)
		r.div.Distance = r.pairCache.Scope("custom").Wrap(cfg.Distance)
	}
}

// fork returns a worker's view of r for concurrent work (ParQGen's slabs,
// reverify's levels): it shares what is goroutine-safe or read-only — the
// engine and its store, the compiled features, relevance, the pair
// cache around a custom distance, the group index — and owns what is not: the
// verification memo, the evaluator's scratch, the counts buffer, the
// counters and the lineage's links (the root's domains it shares read-only).
// The caller folds the worker's stats back with Stats.Add.
func (r *Runner) fork() *Runner {
	w := *r
	w.stats, w.verSeq = Stats{}, 0
	w.cache, w.answered = make(map[string]*Verified), nil
	w.lin.links = nil
	w.div = r.div.Clone()
	w.counter = r.counter.Clone()
	return &w
}

// Config returns the runner's configuration.
func (r *Runner) Config() *Config { return r.cfg }

// DivMax returns the diversity upper bound |V_{u_o}|.
func (r *Runner) DivMax() float64 { return r.div.MaxValue() }

// CovMax returns the coverage upper bound C = Σ c_i.
func (r *Runner) CovMax() float64 { return measure.CoverageMax(r.cfg.Groups) }

// Stats returns the counters accumulated so far (engine and
// candidate-cache stats included; Cache.Entries is the live engine's).
func (r *Runner) Stats() Stats {
	s := r.stats
	es := r.engine.Stats()
	s.Matcher.Add(es.Stats)
	s.Wall[PhasePlan] += time.Duration(r.clocks.Plan.Load())
	s.Wall[PhaseSearch] += time.Duration(r.clocks.Search.Load())
	s.Cache.Hits += es.Cache.Hits
	s.Cache.Misses += es.Cache.Misses
	s.Cache.Evictions += es.Cache.Evictions
	s.Cache.Entries = es.Cache.Entries
	if r.pairCache != nil {
		s.DistCache = r.pairCache.Stats()
	}
	return s
}

// start clears counters and memo for one algorithm run and returns its end,
// the lineage's release. A run-owned engine is rebuilt (its counters are
// cumulative) with an empty store, so every run reports its own, cold-start
// numbers. An external Config.Engine is kept as-is: cross-run warmth of its
// store is exactly what injecting an engine is for.
func (r *Runner) start() (end func()) {
	r.stats = Stats{DerivedReused: r.derivedReused}
	r.stats.Wall[PhaseDerive] = r.deriveWall
	r.derivedReused, r.deriveWall = 0, 0
	r.clocks.Plan.Store(0)
	r.clocks.Search.Store(0)
	r.verSeq = 0
	r.cache, r.answered = make(map[string]*Verified), nil
	r.release()
	r.engine = r.newEngine()
	// Rebind the scorer so a custom distance's pair cache starts cold and
	// its counters cover this run only.
	r.bindScoring()
	return r.release
}

// err reports the run context's cancellation state; algorithms poll it
// between verifications and abort with this error.
func (r *Runner) err() error { return r.ctx.Err() }

// clock adds the time since start to phase p.
func (r *Runner) clock(p Phase, start time.Time) { r.stats.Wall[p] += time.Since(start) }

// update offers v to the run's archive, on the update clock.
func (r *Runner) update(a *pareto.Archive[*Verified], v *Verified) pareto.Result[*Verified] {
	defer r.clock(PhaseUpdate, time.Now())
	return a.Update(v.Point, v)
}

// verify evaluates an instance: q(G), δ(q), f(q) and feasibility. When the
// instance was already verified the cached record returns without work.
// parent, when non-nil and enabled, supplies the verified parent's match
// set for incremental verification (incVerify): since q refines its parent,
// q(G) is a subset of the parent's matches and only those candidates are
// re-checked. The plan starts from the lineage's seed.
func (r *Runner) verify(q *query.Instance, parent *Verified) *Verified {
	return r.verifySeeded(q, parent, noKeep)
}

// level sums q's binding levels; every refinement step raises the sum.
func level(q *query.Instance) (n int) {
	for _, l := range q.I {
		n += l
	}
	return n
}

// ancestorScan bounds the records one ancestor lookup reads, whatever the
// memo's size: the newest that many answered ones, then the root's.
const ancestorScan = 256

// parentOf picks the parent of a verification no walk hands one (a stream
// arrival, a re-scored record, BiQGen's backward sweep): of the answered
// records q refines, the most refined by level, then the smaller answer, then
// the smaller key; failing those, the root's. scanned counts the records read.
// Nothing is looked up for a memo hit, nor when nothing of a parent is used.
func (r *Runner) parentOf(q *query.Instance) (best *Verified, scanned int) {
	if _, ok := r.cache[q.Key()]; ok || r.cfg.DisableIncremental && r.cfg.DisableIncScore {
		return nil, 0
	}
	for _, v := range r.answered[max(0, len(r.answered)-ancestorScan):] {
		scanned++
		// v over best: positive where v is the better parent.
		if query.Refines(q, v.Q) && (best == nil || cmp.Or(cmp.Compare(level(v.Q), level(best.Q)),
			cmp.Compare(len(best.Matches), len(v.Matches)), cmp.Compare(best.Q.Key(), v.Q.Key())) > 0) {
			best = v
		}
	}
	if best == nil && len(r.answered) > ancestorScan {
		scanned++
		if root := r.cache[query.Root(r.cfg.Template).Key()]; root != nil && len(root.Matches) > 0 {
			best = root
		}
	}
	if best != nil {
		r.stats.AncestorsFound++
	}
	return best, scanned
}

// verifySeeded is verify that keeps q in the lineage at depth keep (unless
// noKeep) for its refinements: with the domains its plan ended with, or none
// when its answer came whole from a store or Config.Evaluator. A memo hit,
// an empty plan, a bound veto or several output nodes keep nothing.
func (r *Runner) verifySeeded(q *query.Instance, parent *Verified, keep int) *Verified {
	if v, ok := r.cache[q.Key()]; ok {
		return v
	}
	return r.commit(r.evaluate(q, parent, keep))
}

// evaluate is verifySeeded's work — q's answer, feasibility and score — as
// the link commit records, at depth noKeep when nothing is kept. It writes no
// memo, lineage or event, so forks run it side by side once the root is
// planned. An answer equal to the parent's is not scored again: δ and f are
// functions of the answer set alone, so the record adopts the parent's.
func (r *Runner) evaluate(q *query.Instance, parent *Verified, keep int) link {
	var v *Verified
	var held *match.Domains
	shared := false
	if len(r.extraNodes) > 0 {
		v = r.verifyMultiOutput(q, parent)
		keep = noKeep
	} else {
		var within []graph.NodeID
		if parent != nil && !r.cfg.DisableIncremental {
			within = parent.Matches
		}
		// An injected engine may have the answer from an earlier run: it stands
		// where the evaluation would have returned it; nothing is planned.
		var matches []graph.NodeID
		key, ok, reused := "", false, false
		if r.cfg.Evaluator != nil {
			// Like a stored answer: whole, nothing planned, vetoed or held.
			matches, reused = r.cfg.Evaluator.Answer(r.ctx, q), true
		} else if r.cfg.Engine != nil {
			key = match.AnswerKey(q)
			if matches, reused = r.engine.Answer(key); reused {
				r.stats.AnswersReused++
			}
		}
		if ok = reused; !ok {
			var seed *match.Domains
			if within != nil {
				seed = r.seed(parent)
			} else if !r.cfg.DisableIncremental {
				seed = r.seed(nil) // a seed captured under a within set needs one
			}
			// The arc-consistent candidate set of u_o is a superset of q(G), so
			// its per-group counts upper-bound the coverage counts: when some
			// group's bound is already below c_i the instance is certainly
			// infeasible and backtracking is skipped (cheap infeasibility check).
			var accept func([]graph.NodeID) bool
			if !r.cfg.DisableBoundPrune {
				accept = func(cands []graph.NodeID) bool {
					return measure.FeasibleCounts(r.cfg.Groups, r.counter.Counts(cands))
				}
			}
			hold := keep != noKeep && !r.cfg.DisableIncremental
			matches, ok, held, _ = r.engine.ParEvalOutputSeeded(r.ctx, q, within, accept, seed, hold, key)
		}
		// A non-empty within is a verified parent's whole answer (a vetoed or
		// cancelled record has none), so an equal set makes an equal record.
		if shared = ok && len(within) > 0 && !r.cfg.DisableIncScore && slices.Equal(matches, within); shared {
			v = &Verified{Q: q, Matches: within, Feasible: parent.Feasible, Point: parent.Point, score: parent.score}
		} else {
			v = &Verified{Q: q, Matches: matches}
			r.cover(v, ok)
		}
		if held == nil && !reused {
			keep = noKeep
		}
	}
	switch {
	case r.ctx.Err() != nil: // cut short: commit records nothing of it
	case shared:
		r.stats.AnswersShared++
		if v.Feasible {
			r.stats.IncScores++
		}
	case v.Feasible:
		v.Point.Div = r.scoreDiversity(v, parent)
	}
	return link{v, held, keep}
}

// cover tallies v's answer per group, once per verification, and derives
// feasibility (ok, and every c_i met) and, when feasible, coverage from the
// tally, under the coverage clock.
func (r *Runner) cover(v *Verified, ok bool) {
	defer r.clock(PhaseCover, time.Now())
	counts := r.counter.Counts(v.Matches)
	if v.Feasible = ok && measure.FeasibleCounts(r.cfg.Groups, counts); v.Feasible {
		v.Point.Cov = measure.CoverageCounts(r.cfg.Groups, counts)
	}
}

// commit records what evaluate returned — memo, answered list, the link
// unless at depth noKeep, counters, OnVerified — and returns the record. An
// evaluation the run's cancellation cut short is partial: nothing of it is
// recorded, its domains go back, and the placeholder returned never
// influences a returned set (the caller's next poll ends the run).
func (r *Runner) commit(l link) *Verified {
	v := l.v
	if r.ctx.Err() != nil {
		r.engine.ReleaseDomains(l.d)
		return &Verified{Q: v.Q}
	}
	if l.depth != noKeep {
		r.lin.links = append(r.lin.links, l)
	}
	r.cache[v.Q.Key()] = v
	if len(v.Matches) > 0 {
		r.answered = append(r.answered, v)
	}
	r.stats.Verified++
	if v.Feasible {
		r.stats.Feasible++
	}
	r.verSeq++
	if r.cfg.OnVerified != nil {
		r.cfg.OnVerified(VerifyEvent{
			Seq:      r.verSeq,
			Instance: v.Q,
			Point:    v.Point,
			Feasible: v.Feasible,
			Matches:  len(v.Matches),
		})
	}
	return v
}

// scoreDiversity evaluates δ for a feasible instance. When the parent was
// exactly scored and the child's matches subset it (Lemma 2: refinement
// only shrinks match sets), the subset-delta path derives the child's pair
// sum from the parent's per-node contribution sums instead of re-running
// the O(n²) pair loop; both paths accumulate identical fixed-point units,
// so scores are bit-equal regardless of DisableIncScore. The resulting
// scorer state rides along in Verified for the instance's own children.
func (r *Runner) scoreDiversity(v *Verified, parent *Verified) float64 {
	defer r.clock(PhaseScore, time.Now())
	before, splits := r.div.PairEvals(), r.div.Splits()
	div, ok := 0.0, false
	if !r.cfg.DisableIncScore && parent != nil && parent.score != nil {
		if div, v.score, ok = r.div.EvalDelta(parent.score, v.Matches); ok {
			r.stats.IncScores++
		}
	}
	if !ok {
		div, v.score = r.div.EvalState(v.Matches)
	}
	if r.pairCache == nil {
		// Direct path: every pair the loops visited was an evaluation. (A
		// pair cache counts its own.)
		evals := r.div.PairEvals() - before
		r.stats.DistCache.Evals += evals
		r.engine.AddDistEvals(evals)
	}
	r.stats.ScoreSplits += int(r.div.Splits() - splits)
	return div
}

// newArchive returns the archive every algorithm updates: in-box ties between
// equal points go to the smaller instance key, so which instance stands for a
// box does not depend on the order instances arrive in.
func newArchive(eps float64) *pareto.Archive[*Verified] {
	return pareto.NewKeyedArchive(eps, func(v *Verified) string { return v.Q.Key() })
}

// collectSet extracts the archive's payloads ordered by decreasing
// diversity (ties by increasing coverage) for stable presentation.
func collectSet(a *pareto.Archive[*Verified]) []*Verified {
	set := a.Payloads()
	sort.Slice(set, func(i, j int) bool {
		if set[i].Point.Div != set[j].Point.Div {
			return set[i].Point.Div > set[j].Point.Div
		}
		return set[i].Point.Cov < set[j].Point.Cov
	})
	return set
}

// result is what every batch algorithm returns for its archive: the set in
// collectSet order with the run's counters.
func (r *Runner) result(archive *pareto.Archive[*Verified], start time.Time) *Result {
	return &Result{Set: collectSet(archive), Eps: r.cfg.Eps, Stats: r.Stats(), Elapsed: time.Since(start)}
}

// verifyMultiOutput evaluates an instance under the multiple-output-nodes
// extension: each designated node's match set is computed (incrementally
// within the parent's per-node set when available — refinement shrinks
// every node's matches, Lemma 2's argument applies per node), and the
// objectives are taken over the sorted union. A nil PerNode entry means
// "from scratch" — nil is how within says "no restriction": the parent
// found no match for the node, or left it inactive and an edge variable
// switched on since activates it (Validate keeps extra outputs always
// active; nothing here leans on that). The candidate-bound pruning is not
// applied: a single node's candidate shortfall cannot prove the union
// infeasible. Matcher domains are not inherited either: each node is
// evaluated under its own pin, narrowed by its own within, so a seed serves
// one pin only.
func (r *Runner) verifyMultiOutput(q *query.Instance, parent *Verified) *Verified {
	nodes := append([]int{q.T.Output}, r.extraNodes...)
	v := &Verified{Q: q, PerNode: make(map[int][]graph.NodeID, len(nodes))}
	unionSet := make(map[graph.NodeID]bool)
	for _, ni := range nodes {
		var within []graph.NodeID
		if parent != nil && !r.cfg.DisableIncremental && parent.PerNode != nil {
			within = parent.PerNode[ni]
		}
		matches, _, _ := r.engine.ParEvalNodeFiltered(r.ctx, q, ni, within, nil)
		v.PerNode[ni] = matches
		for _, m := range matches {
			unionSet[m] = true
		}
	}
	v.Matches = make([]graph.NodeID, 0, len(unionSet))
	for m := range unionSet {
		v.Matches = append(v.Matches, m)
	}
	sort.Slice(v.Matches, func(i, j int) bool { return v.Matches[i] < v.Matches[j] })
	r.cover(v, true)
	return v
}
