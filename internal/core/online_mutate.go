package core

import "fairsqg/internal/graph"

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
// settings and fan-out (an external Config.Engine is bound to the old
// generation). Generation lifetimes stay with the caller — Retarget never
// closes g.
func (r *Runner) Retarget(g *graph.Graph) {
	if g == r.cfg.G {
		return
	}
	r.releaseRoot()
	old := r.engine
	cfg := *r.cfg
	cfg.G, cfg.Engine = g, nil
	cfg.Settings, cfg.MatchWorkers = old.Settings(), old.Workers()
	r.cfg = &cfg
	r.stats.Matcher.Add(old.Stats().Stats)
	r.engine = r.newEngine(old.Cache())
	r.bind()
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
