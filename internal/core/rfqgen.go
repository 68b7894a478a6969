package core

import "time"

// RfQGen computes an ε-Pareto instance set with the "refine as always"
// strategy (Fig. 3): a depth-first exploration of the instance lattice from
// the most relaxed root q_r. Each visited instance is verified
// incrementally against its parent's match set; infeasible instances cut
// their entire refinement subtree (Lemma 2: refinement only shrinks match
// sets, so no descendant can regain feasibility). Feasible instances pass
// through the Update archive and spawn their front set.
func (r *Runner) RfQGen() (*Result, error) {
	defer r.start()()
	start := time.Now()
	archive := newArchive(r.cfg.Eps)
	exploreSlab(r, -1, 0, archive, noopLocker{})
	if err := r.err(); err != nil {
		return nil, err
	}
	return r.result(archive, start), nil
}
