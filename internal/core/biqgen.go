package core

import (
	"time"

	"fairsqg/internal/pareto"
	"fairsqg/internal/query"
)

// sandwichPair is one entry of SBounds: lo ≺_I hi, both feasible, with
// equal box-diversity or box-coverage. By Lemma 3 every instance strictly
// between lo and hi in the refinement preorder is ε-dominated and can be
// skipped without verification.
type sandwichPair struct {
	lo, hi query.Instantiation
}

// sBounds maintains the sandwich pairs with the paper's widening rule: a
// new pair replaces any pair it covers, and is dropped when an existing
// pair already covers it.
type sBounds struct {
	t     *query.Template
	pairs []sandwichPair
}

// add inserts (lo, hi), widening or subsuming existing pairs.
func (s *sBounds) add(lo, hi query.Instantiation) bool {
	for i := range s.pairs {
		p := &s.pairs[i]
		// An existing pair covers the new one: nothing to record.
		if query.RefinesInstantiation(s.t, p.lo, lo) && query.RefinesInstantiation(s.t, hi, p.hi) {
			return false
		}
	}
	kept := s.pairs[:0]
	for _, p := range s.pairs {
		// Drop pairs the new one covers.
		if query.RefinesInstantiation(s.t, lo, p.lo) && query.RefinesInstantiation(s.t, p.hi, hi) {
			continue
		}
		kept = append(kept, p)
	}
	s.pairs = append(kept, sandwichPair{lo: lo.Clone(), hi: hi.Clone()})
	return true
}

// prunes reports whether in lies strictly between some recorded pair.
func (s *sBounds) prunes(in query.Instantiation) bool {
	for i := range s.pairs {
		p := &s.pairs[i]
		if query.StrictlyRefinesInstantiation(s.t, p.lo, in) &&
			query.StrictlyRefinesInstantiation(s.t, in, p.hi) {
			return true
		}
	}
	return false
}

// biItem is one queued lattice node with its verified parent (forward
// direction only; a backward item takes the most refined ancestor the memo
// holds when its turn comes — parentOf).
type biItem struct {
	in     query.Instantiation
	parent *Verified
}

// BiQGen computes an ε-Pareto instance set with the bidirectional strategy
// (Fig. 6): a forward refinement-based exploration from the root q_r
// (SpawnF) interleaved with a backward relaxation-based exploration from
// the most refined instance q_b (SpawnB). Feasible forward/backward pairs
// that share a box coordinate become "sandwich" bounds (Lemma 3) that prune
// every instance strictly between them. The backward exploration relaxes
// every instance it reaches, feasible or not, pruned or verified: its
// feasible instances are what pair up with forward ones as sandwich bounds,
// and the visited set keeps the two sweeps from verifying one instance
// twice.
func (r *Runner) BiQGen() (*Result, error) {
	defer r.start()()
	start := time.Now()
	t := r.cfg.Template
	archive := newArchive(r.cfg.Eps)
	visited := make(map[string]bool)
	bounds := &sBounds{t: t}

	var fwdFeasible, bwdFeasible []*Verified

	// recordSandwich checks a freshly verified feasible instance against
	// the opposite direction's feasible instances and records new bounds.
	recordSandwich := func(v *Verified, forward bool) {
		if r.cfg.DisableSandwich {
			return
		}
		vb := pareto.BoxOf(v.Point, r.cfg.Eps)
		opposite := bwdFeasible
		if !forward {
			opposite = fwdFeasible
		}
		for _, o := range opposite {
			ob := pareto.BoxOf(o.Point, r.cfg.Eps)
			if ob.DI != vb.DI && ob.FI != vb.FI {
				continue
			}
			var lo, hi *Verified
			if forward {
				lo, hi = v, o
			} else {
				lo, hi = o, v
			}
			if !query.StrictlyRefinesInstantiation(t, lo.Q.I, hi.Q.I) {
				continue
			}
			if bounds.add(lo.Q.I, hi.Q.I) {
				r.stats.SandwichPairs++
			}
		}
		if forward {
			fwdFeasible = append(fwdFeasible, v)
		} else {
			bwdFeasible = append(bwdFeasible, v)
		}
	}

	fwd := []biItem{{in: query.Root(t)}}
	bwd := []biItem{{in: query.Bottom(t)}}

	// Plans of both sweeps start from the root's domains, the default seed
	// (the queues are breadth-first: a parent's own domains would have to
	// outlive its queued children).
	for len(fwd) > 0 || len(bwd) > 0 {
		if r.err() != nil {
			break
		}
		// Forward step.
		if len(fwd) > 0 {
			item := fwd[0]
			fwd = fwd[1:]
			key := item.in.Key()
			if !visited[key] {
				visited[key] = true
				r.stats.Spawned++
				if bounds.prunes(item.in) {
					// ε-dominated by a sandwich bound: skip verification but
					// keep exploring so refinements outside the band stay
					// reachable. Any verified ancestor's match set remains a
					// valid superset for the children (refinement is
					// transitive), so the parent is carried through.
					r.stats.Pruned++
					for _, child := range query.RefineSteps(t, item.in) {
						if !visited[child.Key()] {
							fwd = append(fwd, biItem{in: child, parent: item.parent})
						}
					}
				} else {
					v := r.verify(query.MustInstance(t, item.in), item.parent)
					if v.Feasible {
						r.update(archive, v)
						recordSandwich(v, true)
						for _, child := range r.spawn(v) {
							if !visited[child.Key()] {
								fwd = append(fwd, biItem{in: child, parent: v})
							}
						}
					} else {
						r.stats.Pruned += query.NumRefineSteps(t, item.in)
					}
				}
			}
		}
		// Backward step: relax towards the root, passing through the
		// feasibility frontier and the feasible region — the backward
		// feasible instances are what pairs up with forward ones to form
		// sandwich bounds.
		if len(bwd) > 0 {
			item := bwd[0]
			bwd = bwd[1:]
			key := item.in.Key()
			if !visited[key] {
				visited[key] = true
				r.stats.Spawned++
				if bounds.prunes(item.in) {
					// ε-dominated by a sandwich bound: skip the verification
					// but keep relaxing so the backward frontier continues
					// past the band.
					r.stats.Pruned++
				} else {
					// Whatever either sweep has verified that the item refines
					// bounds its answer; the root, first forward item, at least.
					q := query.MustInstance(t, item.in)
					parent, _ := r.parentOf(q)
					v := r.verify(q, parent)
					if v.Feasible {
						r.update(archive, v)
						recordSandwich(v, false)
					}
				}
				for _, up := range query.RelaxSteps(t, item.in) {
					if !visited[up.Key()] {
						bwd = append(bwd, biItem{in: up})
					}
				}
			}
		}
	}
	if err := r.err(); err != nil {
		return nil, err
	}

	return r.result(archive, start), nil
}
