package core

import (
	"time"

	"fairsqg/internal/query"
)

// spawn produces the front set Q_F of a verified feasible instance (the
// paper's Spawn procedure): every one-step refinement of its instantiation.
// A child no node can satisfy is verified like any other and found to have
// an empty answer.
func (r *Runner) spawn(v *Verified) []query.Instantiation {
	defer r.clock(PhaseSpawn, time.Now())
	return query.RefineSteps(r.cfg.Template, v.Q.I)
}
