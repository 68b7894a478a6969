package core

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fairsqg/internal/graph"
	"fairsqg/internal/query"
)

// MutationEvent announces that the runner's graph advanced to a new
// generation. The event owns a reference to the generation (retained by
// the source); OnlineQGen adopts it and releases superseded ones.
type MutationEvent struct {
	// Graph is the generation that resulted from the mutation batch.
	Graph *graph.Graph
}

// MutationSource yields pending mutation events without blocking: Poll
// returns nil when nothing happened since the last call. OnlineQGen polls
// it between stream arrivals and re-scores its archived instances against
// the newest generation (coalescing a burst of batches into one re-score).
type MutationSource interface {
	Poll() *MutationEvent
}

// ChanMutations adapts a channel of events into a MutationSource, for
// callers that apply batches themselves and announce each new generation.
type ChanMutations struct {
	C <-chan MutationEvent
}

// Poll implements MutationSource.
func (s *ChanMutations) Poll() *MutationEvent {
	select {
	case ev, ok := <-s.C:
		if !ok {
			return nil
		}
		return &ev
	default:
		return nil
	}
}

// LiveMutations adapts a graph.Live into a MutationSource by version
// polling: Poll reports an event whenever the live graph's current
// generation is newer than the one last reported. The returned event
// carries a retained reference (ownership passes to the consumer).
type LiveMutations struct {
	L    *graph.Live
	last uint64
}

// Poll implements MutationSource.
func (s *LiveMutations) Poll() *MutationEvent {
	if s.L.Version() == s.last {
		return nil
	}
	g := s.L.Acquire()
	if g.Version() == s.last { // raced with a concurrent Poll
		g.Close()
		return nil
	}
	s.last = g.Version()
	return &MutationEvent{Graph: g}
}

// Retarget rebinds the runner to a new generation of its graph: engine,
// group counter, population and scoring functions are rebuilt over g (see
// bind), and the verification memo is dropped (its entries scored the old
// generation). The matcher and candidate-cache counters and the clocks
// carry over: they span generations within one run. The engine is always
// replaced by a run-owned one under the same settings, with an empty store
// (an external Config.Engine is bound to the old generation), that adopts
// the old one's free matchers and domain buffers (Engine.Adopt).
// Generation lifetimes stay with the caller — Retarget never closes g.
func (r *Runner) Retarget(g *graph.Graph) {
	if g == r.cfg.G {
		return
	}
	old := r.engine
	cfg := *r.cfg
	cfg.G, cfg.Engine = g, nil
	cfg.Settings = old.Settings()
	r.cfg = &cfg
	r.stats = r.Stats() // the old engine's counters and the clocks stay the run's
	r.clocks.Plan.Store(0)
	r.clocks.Search.Store(0)
	r.release()
	r.engine = r.newEngine()
	r.engine.Adopt(old)
	r.bind()
	r.stats.Wall[PhaseDerive] += r.deriveWall
	r.deriveWall = 0
}

// reverify verifies an online run's working set — a copy, sorted in place —
// on the generation the runner was just retargeted to, as a walk of the
// lattice the set spans instead of one instance at a time from the root: each
// distinct instance once, loosest first, under the most refined ancestor the
// memo holds by then (parentOf) and planned from that ancestor's domains,
// which the lineage keeps while a later instance refines it. Every link is cut
// at return, cancelled or not, and the caller finds each record in the memo.
//
// It goes a level (an equal level sum) at a time; refinement raises the sum,
// so no member refines another. The caller picks the members' parents as the
// level begins, up to GOMAXPROCS views of the runner evaluate them, and the
// caller commits them in set order, so the run records the same at any worker
// count. A caller-supplied Distance or Relevance keeps them on the caller.
func (r *Runner) reverify(set []*Verified) {
	defer r.clock(PhaseReverify, time.Now())
	slices.SortFunc(set, func(a, b *Verified) int {
		return cmp.Or(cmp.Compare(level(a.Q), level(b.Q)), cmp.Compare(a.Q.Key(), b.Q.Key()))
	})
	set = slices.CompactFunc(set, func(a, b *Verified) bool { return a.Q.Key() == b.Q.Key() })
	defer r.cut(0)
	if len(set) > 0 && !r.cfg.DisableIncremental && len(r.extraNodes) == 0 && r.cfg.Evaluator == nil {
		r.seed(nil) // planned before views read the lineage
	}
	views := []*Runner{r}
	for lo, hi := 0, 0; lo < len(set) && r.err() == nil; lo = hi {
		for hi = lo + 1; hi < len(set) && level(set[hi].Q) == level(set[lo].Q); hi++ {
		}
		ms := make([]member, hi-lo)
		for i, v := range set[lo:hi] {
			ms[i] = member{v: v, keep: noKeep}
			if slices.ContainsFunc(set[hi:], func(d *Verified) bool { return query.StrictlyRefines(d.Q, v.Q) }) {
				ms[i].keep = 0
			}
			ms[i].parent, _ = r.parentOf(v.Q)
		}
		n := min(runtime.GOMAXPROCS(0), len(ms))
		if r.cfg.Distance != nil || r.cfg.Relevance != nil {
			n = 1 // never entered from two goroutines here
		}
		for len(views) < n {
			views = append(views, r.fork())
		}
		evaluateLevel(ms, views[:n])
		for _, m := range ms {
			r.commit(m.out)
		}
	}
}

// member is an instance of a level: its previous record, parent, depth, link.
type member struct {
	v, parent *Verified
	keep      int
	out       link
}

// evaluateLevel evaluates a level's members on views — the caller, then forks
// that read its lineage and whose counters it takes — each view taking the
// next when done, the largest previous answers first so that no long one
// starts last; then puts the members back in set order.
func evaluateLevel(ms []member, views []*Runner) {
	slices.SortStableFunc(ms, func(a, b member) int { return cmp.Compare(len(b.v.Matches), len(a.v.Matches)) })
	var next atomic.Int64
	work := func(w *Runner) {
		for i := next.Add(1) - 1; i < int64(len(ms)); i = next.Add(1) - 1 {
			ms[i].out = w.evaluate(ms[i].v.Q, ms[i].parent, ms[i].keep)
		}
	}
	var wg sync.WaitGroup
	for _, w := range views[1:] {
		w.lin = views[0].lin
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(views[0])
	wg.Wait()
	for _, w := range views[1:] {
		views[0].stats.Add(w.stats)
		w.stats = Stats{}
	}
	slices.SortFunc(ms, func(a, b member) int { return cmp.Compare(a.v.Q.Key(), b.v.Q.Key()) })
}

// Close releases the graph generation the runner adopted from a mutation
// source, if any. Runners that never consumed a MutationSource need no
// Close; calling it twice is safe.
func (r *Runner) Close() error {
	if r.ownedG == nil {
		return nil
	}
	err := r.ownedG.Close()
	r.ownedG = nil
	return err
}
