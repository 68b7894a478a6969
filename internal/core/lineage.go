package core

import (
	"fairsqg/internal/match"
	"fairsqg/internal/query"
)

// lineage holds every matcher domain a run keeps, on Runner.engine. By
// Lemma 2 a refinement's candidates lie inside its ancestors', so a plan
// starts from its parent's domains, or its nearest kept ancestor's, or else
// the root's — planned once per engine. A walker keeps a record at a depth
// (verifySeeded) and cuts back to that depth when the record's subtree is
// done, so a link's ancestors sit below it at lower depths; a verification no
// walk hands a parent asks Runner.parentOf. Buffers go back to the engine in
// cut and release only: at each run's end (Runner.start), cancelled or not,
// and before Retarget. A ParQGen fork shares the root's domains read-only
// and has links of its own.
type lineage struct {
	root    *match.Domains // nil when planned but empty
	planned bool
	links   []link
}

// link is a kept record with its domains, nil for an answer that needed no
// plan (an injected engine's store, Config.Evaluator).
type link struct {
	v     *Verified
	d     *match.Domains
	depth int
}

// noKeep is verifySeeded's depth for a record no walker keeps.
const noKeep = -1

// seed returns the domains a plan under parent (nil: none) starts from.
func (r *Runner) seed(parent *Verified) *match.Domains {
	l := &r.lin
	i := len(l.links) - 1
	for i >= 0 && l.links[i].v != parent {
		i--
	}
	// Below a link without domains, ancestors sit at falling depths.
	for i > 0 && l.links[i].d == nil && l.links[i-1].depth < l.links[i].depth {
		i--
	}
	if i >= 0 && l.links[i].d != nil {
		return l.links[i].d
	}
	if !l.planned {
		l.planned = true
		l.root = r.engine.PlanDomains(r.ctx, query.MustInstance(r.cfg.Template, query.Root(r.cfg.Template)))
	}
	return l.root
}

// cut gives back the domains of every link at depth or deeper.
func (r *Runner) cut(depth int) {
	l := &r.lin
	for n := len(l.links); n > 0 && l.links[n-1].depth >= depth; n-- {
		r.engine.ReleaseDomains(l.links[n-1].d)
		l.links[n-1] = link{}
		l.links = l.links[:n-1]
	}
}

// release gives back everything, the root's domains included.
func (r *Runner) release() {
	r.cut(0)
	r.engine.ReleaseDomains(r.lin.root)
	r.lin.root, r.lin.planned = nil, false
}
