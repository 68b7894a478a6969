package core

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"fairsqg/internal/graph"
	"fairsqg/internal/pareto"
	"fairsqg/internal/query"
)

// InstanceStream supplies query instances to OnlineQGen; Next returns nil
// when the stream is exhausted.
type InstanceStream interface {
	Next() *query.Instance
}

// RandomStream emits Count random instantiations of a template, drawn
// uniformly over each variable's options with a seeded generator — the
// paper's Exp-3 setup ("simulate instance streams by randomly instantiating
// fixed query templates").
type RandomStream struct {
	T     *query.Template
	Count int
	rng   *rand.Rand
}

// NewRandomStream returns a deterministic random stream.
func NewRandomStream(t *query.Template, count int, seed int64) *RandomStream {
	return &RandomStream{T: t, Count: count, rng: rand.New(rand.NewSource(seed))}
}

// Next implements InstanceStream.
func (s *RandomStream) Next() *query.Instance {
	if s.Count <= 0 {
		return nil
	}
	s.Count--
	in := make(query.Instantiation, len(s.T.Vars))
	for vi := range s.T.Vars {
		v := &s.T.Vars[vi]
		switch v.Kind {
		case query.EdgeVar:
			in[vi] = s.rng.Intn(2)
		case query.RangeVar:
			in[vi] = s.rng.Intn(len(v.Ladder)+1) - 1 // Wildcard..len-1
		}
	}
	return query.MustInstance(s.T, in)
}

// SliceStream replays a fixed list of instances.
type SliceStream struct {
	Items []*query.Instance
	pos   int
}

// Next implements InstanceStream.
func (s *SliceStream) Next() *query.Instance {
	if s.pos >= len(s.Items) {
		return nil
	}
	q := s.Items[s.pos]
	s.pos++
	return q
}

// OnlineOptions parameterizes OnlineQGen.
type OnlineOptions struct {
	// K is the fixed result-set size to maintain.
	K int
	// Window is the cache size w: a rejected instance stays eligible for
	// re-admission for Window arrivals before it expires.
	Window int
	// InitialEps is the starting tolerance ε_m (> 0); defaults to the
	// configuration's Eps when zero.
	InitialEps float64
	// CheckpointEvery, when positive, invokes OnCheckpoint after every
	// that many processed instances (and once more at stream end).
	CheckpointEvery int
	// OnCheckpoint receives periodic snapshots for anytime-quality
	// experiments (Fig. 11(b)).
	OnCheckpoint func(cp OnlineCheckpoint)
	// Mutations, when non-nil, is polled between stream arrivals: on a new
	// graph generation the runner retargets and re-scores every archived
	// and window-cached instance against it at the current tolerance
	// (instances that became infeasible drop out; ε never shrinks). A burst
	// of batches coalesces into one re-score of the newest generation.
	// Callers should Close the runner afterwards to release the last
	// adopted generation.
	Mutations MutationSource
}

// OnlineCheckpoint is a periodic snapshot of the online run.
type OnlineCheckpoint struct {
	// Processed is the number of stream instances consumed so far.
	Processed int
	// Points are the current set's quality coordinates.
	Points []pareto.Point
	// Eps is the current tolerance.
	Eps float64
}

// OnlineResult is the outcome of an online run.
type OnlineResult struct {
	// Set is the final ε-Pareto instance set (|Set| ≤ K).
	Set []*Verified
	// Eps is the final, possibly enlarged tolerance.
	Eps float64
	// EpsHistory records the tolerance after each processed instance.
	EpsHistory []float64
	// Delays records the per-instance maintenance time.
	Delays []time.Duration
	// Processed counts stream instances consumed.
	Processed int
	// Rescores counts graph-mutation events that triggered an archive
	// re-score (coalesced: one per burst, not one per batch).
	Rescores int
	// RescoreDropped counts archived or window-cached instances that
	// became infeasible under a mutated generation and fell out.
	RescoreDropped int
	// Stats aggregates verification work.
	Stats Stats
}

type windowEntry struct {
	v  *Verified
	ts int
}

// OnlineQGen maintains a size-k ε-Pareto instance set over a stream of
// instances (Fig. 8): while the set is below k it admits instances through
// Update, caching rejected ones in a sliding window W_Q; once full, an
// arrival that would grow the set (Update Case 3) instead replaces its
// nearest neighbor in the normalized (δ, f) space, enlarging ε to their
// distance so the previous ε-dominance relations are preserved (Lemma 4).
// After every eviction the window is rescanned for cached instances that
// can re-enter without growing ε. A cancelled run returns the context's
// error, like every other algorithm.
func (r *Runner) OnlineQGen(stream InstanceStream, opts OnlineOptions) (*OnlineResult, error) {
	if err := r.cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.K <= 0 {
		return nil, fmt.Errorf("core: OnlineQGen requires K > 0, got %d", opts.K)
	}
	if opts.Window < 0 {
		return nil, fmt.Errorf("core: OnlineQGen requires Window >= 0, got %d", opts.Window)
	}
	if opts.Mutations != nil && r.cfg.Evaluator != nil {
		return nil, fmt.Errorf("core: OnlineQGen cannot follow mutations with Config.Evaluator, which answers over one generation")
	}
	eps := opts.InitialEps
	if eps <= 0 {
		eps = r.cfg.Eps
	}
	defer r.start()()
	archive := newArchive(eps)
	divMax, covMax := r.DivMax(), r.CovMax()
	var window []windowEntry
	res := &OnlineResult{}
	now := 0

	expire := func() {
		kept := window[:0]
		for _, e := range window {
			if e.ts >= now-opts.Window+1 {
				kept = append(kept, e)
			}
		}
		window = kept
	}
	cache := func(v *Verified) {
		if opts.Window > 0 {
			window = append(window, windowEntry{v: v, ts: now})
		}
	}
	// offer updates the archive with v and caches whatever it turns away.
	offer := func(v *Verified) {
		out := r.update(archive, v)
		if !out.Accepted {
			cache(v)
		}
		for _, ev := range out.Evicted {
			cache(ev)
		}
	}
	// rescore drains the mutation source and, when the graph advanced,
	// retargets the runner and re-verifies the whole working state — the
	// archive's payloads and the window cache — against the newest
	// generation: reverify walks it as a lattice, so the two loops below
	// only read the memo. The archive is rebuilt at its current ε (Lemma 4's
	// monotonicity is per-tolerance; re-scored points land wherever the
	// new graph puts them, but the tolerance itself never shrinks).
	var refill func()
	rescore := func() {
		if opts.Mutations == nil {
			return
		}
		var next *graph.Graph
		for ev := opts.Mutations.Poll(); ev != nil; ev = opts.Mutations.Poll() {
			if ev.Graph == nil {
				continue
			}
			if next != nil {
				next.Close()
			}
			next = ev.Graph
		}
		if next == nil {
			return
		}
		if next == r.cfg.G {
			next.Close()
			return
		}
		r.Retarget(next)
		if r.ownedG != nil {
			r.ownedG.Close()
		}
		r.ownedG = next
		divMax, covMax = r.DivMax(), r.CovMax()
		res.Rescores++
		old := archive.Payloads()
		oldWindow := window
		archive = newArchive(archive.Eps())
		window = nil
		set := slices.Clone(old)
		for _, e := range oldWindow {
			set = append(set, e.v)
		}
		r.reverify(set)
		if r.err() != nil {
			return
		}
		for _, v := range old {
			if nv := r.verify(v.Q, nil); nv.Feasible {
				offer(nv)
			} else {
				res.RescoreDropped++
			}
		}
		for _, e := range oldWindow {
			if nv := r.verify(e.v.Q, nil); nv.Feasible {
				window = append(window, windowEntry{v: nv, ts: e.ts})
			} else {
				res.RescoreDropped++
			}
		}
		refill()
	}
	// refill re-offers cached instances while they can join without
	// growing the set past K.
	refill = func() {
		kept := window[:0]
		for _, e := range window {
			c := archive.Classify(e.v.Point, e.v)
			admit := c == pareto.ReplacedBoxes || c == pareto.ReplacedInstance ||
				(c == pareto.AddedBox && archive.Len() < opts.K)
			if admit {
				out := r.update(archive, e.v)
				for _, ev := range out.Evicted {
					kept = append(kept, windowEntry{v: ev, ts: now})
				}
				continue
			}
			kept = append(kept, e)
		}
		window = kept
	}
	// processed closes one arrival's bookkeeping, feasible or not.
	processed := func(start time.Time) {
		res.Delays = append(res.Delays, time.Since(start))
		res.EpsHistory = append(res.EpsHistory, archive.Eps())
		res.Processed++
		if opts.CheckpointEvery > 0 && opts.OnCheckpoint != nil && res.Processed%opts.CheckpointEvery == 0 {
			opts.OnCheckpoint(OnlineCheckpoint{Processed: res.Processed, Points: archive.Points(), Eps: archive.Eps()})
		}
	}

	for q := stream.Next(); q != nil; q = stream.Next() {
		start := time.Now()
		now++
		rescore()
		parent, _ := r.parentOf(q)
		v := r.verify(q, parent)
		if err := r.err(); err != nil { // v, or a re-scored record, is a placeholder
			return nil, err
		}
		expire()
		if !v.Feasible {
			processed(start)
			continue
		}
		if archive.Len() < opts.K {
			offer(v)
		} else {
			switch archive.Classify(v.Point, v) {
			case pareto.Rejected:
				cache(v)
			case pareto.ReplacedBoxes, pareto.ReplacedInstance:
				offer(v) // accepted: Classify agrees with Update
				refill()
			case pareto.AddedBox:
				// Replace the nearest neighbor, enlarging ε to their
				// distance; ε never shrinks (Lemma 4).
				ni, dist := archive.NearestNeighbor(v.Point, divMax, covMax)
				if ni >= 0 {
					cache(archive.Remove(ni))
				}
				if dist > archive.Eps() {
					for _, dropped := range archive.SetEps(dist) {
						cache(dropped)
					}
				}
				offer(v)
				refill()
			}
		}
		processed(start)
	}
	rescore() // mutations that landed after the last arrival still count
	if err := r.err(); err != nil {
		return nil, err
	}
	if opts.OnCheckpoint != nil && (opts.CheckpointEvery <= 0 || res.Processed%opts.CheckpointEvery != 0) {
		opts.OnCheckpoint(OnlineCheckpoint{Processed: res.Processed, Points: archive.Points(), Eps: archive.Eps()})
	}

	res.Set = collectSet(archive)
	res.Eps = archive.Eps()
	res.Stats = r.Stats()
	return res, nil
}
