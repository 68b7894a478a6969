package core

import (
	"cmp"
	"slices"

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
// generation). The candidate cache carries over — its keys are scoped by
// the generation key, so pre-mutation entries can never answer
// post-mutation queries, while entries the new generation re-derives stay
// warm — and so do the matcher counters, which span generations within one
// run. The engine is always replaced by a run-owned one under the same
// settings (an external Config.Engine is bound to the old generation),
// which takes over the old one's free matcher-domain buffers
// (match.Engine.AdoptDomains): reverify holds one per member of the working
// set, every generation. Generation lifetimes stay with the caller —
// Retarget never closes g.
func (r *Runner) Retarget(g *graph.Graph) {
	if g == r.cfg.G {
		return
	}
	old := r.engine
	cfg := *r.cfg
	cfg.G, cfg.Engine = g, nil
	cfg.Settings = old.Settings()
	r.cfg = &cfg
	r.stats.Matcher.Add(old.Stats().Stats)
	r.release()
	r.engine = r.newEngine(old.Cache())
	r.engine.AdoptDomains(old)
	r.bind()
}

// reverify verifies an online run's working set — a copy, sorted in place —
// on the generation the runner was just retargeted to, as a walk of the
// lattice the set spans instead of one instance at a time from the root: each
// distinct instance once, loosest first, under the most refined ancestor the
// memo holds by then (parentOf) and planned from that ancestor's domains,
// which the lineage keeps while a later instance refines it. Every link is cut
// at return, cancelled or not, and the caller finds each record in the memo.
func (r *Runner) reverify(set []*Verified) {
	slices.SortFunc(set, func(a, b *Verified) int {
		return cmp.Or(cmp.Compare(level(a.Q), level(b.Q)), cmp.Compare(a.Q.Key(), b.Q.Key()))
	})
	set = slices.CompactFunc(set, func(a, b *Verified) bool { return a.Q.Key() == b.Q.Key() })
	defer r.cut(0)
	for i, v := range set {
		if r.err() != nil {
			return
		}
		keep := noKeep
		if slices.ContainsFunc(set[i+1:], func(d *Verified) bool { return query.StrictlyRefines(d.Q, v.Q) }) {
			keep = 0
		}
		parent, _ := r.parentOf(v.Q)
		r.verifySeeded(v.Q, parent, keep)
	}
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
