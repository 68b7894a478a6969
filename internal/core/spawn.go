package core

import (
	"slices"
	"time"

	"fairsqg/internal/graph"
	"fairsqg/internal/query"
)

// maxNeighborhoodSeeds caps the match-set size above which the spawner
// skips the d-hop neighborhood computation: with that many matches the
// restriction barely prunes anything (the neighborhood approaches the
// whole graph) while the BFS would dominate the per-instance cost. Deeply
// refined instances — where the restriction actually bites — have small
// match sets and stay under the cap.
const maxNeighborhoodSeeds = 400

// spawner produces the front set Q_F for a verified instance, implementing
// the paper's Spawn procedure with the template-refinement optimization:
// the values a range variable can still take are restricted to those
// realized in the d-hop neighborhood G_q^d of the current match set, and an
// edge variable is frozen at absent when its label does not occur around
// the matches.
//
// One walk of the neighborhood serves every variable that can still step
// from the instance at hand; an instance with no such variable is not
// walked at all. Because refinement only shrinks match sets, a child's
// neighborhood is a subset of its parent's, so a variable the parent found
// blocked (capped out, or frozen) is blocked in the child too: those are
// carried down on Verified.spent and not derived again.
//
// A spawner serves one goroutine and is bound to the runner's graph and
// template as they are when it is made.
type spawner struct {
	r        *Runner
	g        *graph.Graph
	diameter int
	// slot is, per variable, the index of what its restriction reads: for a
	// chain range variable an entry of extrema, for an edge variable an
	// entry of labels; -1 when the graph has nothing to find (the label or
	// attribute is not in its dictionaries). Unused for equality variables,
	// whose set-membership restriction is not modeled by caps.
	slot []int
	// extrema holds one entry per distinct (node label, attribute) of the
	// chain range variables, labels one per distinct edge-variable label.
	extrema []hoodExtrema
	labels  []hoodLabel

	// Scratch reused across refine calls: the walker, the restriction for
	// query.RefineStepsRestricted, and the current walk's instance levels,
	// steppable edge variables, and chain variables and labels not proven.
	hood        graph.Neighborhood
	res         query.Restriction
	levels      query.Instantiation
	edges       []int
	unproven    []int
	wantExtrema []*hoodExtrema
	wantLabels  []*hoodLabel
}

// hoodExtrema is the value range of one attribute over one node label
// within the neighborhood being walked.
type hoodExtrema struct {
	label  graph.LabelID
	attr   graph.AttrID
	any    bool
	lo, hi graph.Value
}

// hoodLabel records whether some neighborhood node has an out-edge with
// one edge label; sigBit is the label's bit in graph.OutSignature.
type hoodLabel struct {
	label  graph.LabelID
	sigBit uint64
	found  bool
}

func newSpawner(r *Runner) *spawner {
	t, g := r.cfg.Template, r.cfg.G
	s := &spawner{r: r, g: g, diameter: t.Diameter(), slot: make([]int, len(t.Vars))}
	if s.diameter == 0 {
		s.diameter = 1
	}
	s.res = query.Restriction{Caps: make([]int, len(t.Vars)), Frozen: make([]bool, len(t.Vars))}
	for vi := range t.Vars {
		tv := &t.Vars[vi]
		s.slot[vi] = -1
		switch {
		case tv.Kind == query.EdgeVar:
			label := g.LookupLabel(t.Edges[tv.Edge].Label)
			if label == graph.InvalidLabel {
				continue
			}
			s.slot[vi] = slices.IndexFunc(s.labels, func(l hoodLabel) bool { return l.label == label })
			if s.slot[vi] < 0 {
				s.slot[vi] = len(s.labels)
				s.labels = append(s.labels, hoodLabel{label: label, sigBit: graph.LabelSigBit(label)})
			}
		case tv.Op != graph.OpEQ:
			label, attr := g.LookupLabel(t.Nodes[tv.Node].Label), g.AttrIDOf(tv.Attr)
			if label == graph.InvalidLabel || attr == graph.InvalidAttr {
				continue
			}
			s.slot[vi] = slices.IndexFunc(s.extrema, func(e hoodExtrema) bool { return e.label == label && e.attr == attr })
			if s.slot[vi] < 0 {
				s.slot[vi] = len(s.extrema)
				s.extrema = append(s.extrema, hoodExtrema{label: label, attr: attr})
			}
		}
	}
	return s
}

// refine returns the one-step refinements of v's instantiation, restricted
// by the template-refinement analysis when enabled and affordable.
func (s *spawner) refine(v *Verified) []query.Instantiation {
	defer s.r.clock(PhaseSpawn, time.Now())
	t := s.r.cfg.Template
	// An evaluator's variables need not be predicates on nodes near the answer.
	if s.r.cfg.DisableTemplateRefinement || s.r.cfg.Evaluator != nil || len(v.Matches) == 0 || len(v.Matches) > maxNeighborhoodSeeds {
		return query.RefineSteps(t, v.Q.I)
	}
	return query.RefineStepsRestricted(t, v.Q.I, s.restriction(v))
}

// spentBit is variable vi's bit in Verified.spent; variables past the
// word are never carried down, only derived again.
func spentBit(vi int) uint64 {
	if vi >= 64 {
		return 0
	}
	return 1 << uint(vi)
}

// restriction derives per-variable ladder caps and frozen edge variables
// from the neighborhood of v's matches, and records the variables that can
// never step again in v.spent. The result aliases the spawner's scratch.
//
// The walk stops once every wanted label is found and every steppable chain
// variable's next level is satisfiable: such a variable stays at NoCap, read
// like any cap at or above that level; a blocked one saw the whole ball.
func (s *spawner) restriction(v *Verified) query.Restriction {
	t := s.r.cfg.Template
	for vi := range s.res.Caps {
		s.res.Caps[vi], s.res.Frozen[vi] = query.NoCap, false
	}
	// block withholds variable vi's one step, at v and at everything that
	// refines it: an edge variable is frozen, a range variable capped at
	// top, which is below its next level.
	block := func(vi, top int) {
		if t.Vars[vi].Kind == query.EdgeVar {
			s.res.Frozen[vi] = true
		} else {
			s.res.Caps[vi] = top
		}
		v.spent |= spentBit(vi)
		s.r.stats.RefineSuppressed++
	}
	s.levels, s.edges, s.unproven = v.Q.I, s.edges[:0], s.unproven[:0]
	s.wantExtrema, s.wantLabels = s.wantExtrema[:0], s.wantLabels[:0]
	for vi := range t.Vars {
		tv := &t.Vars[vi]
		level := v.Q.I[vi]
		// Only a variable with a step left is worth a look: an edge
		// variable not yet present, a chain variable below its ladder's top.
		if tv.Kind == query.EdgeVar && level == 1 ||
			tv.Kind == query.RangeVar && (tv.Op == graph.OpEQ || level+1 >= len(tv.Ladder)) {
			continue
		}
		switch {
		case v.spent&spentBit(vi) != 0 || s.slot[vi] < 0:
			block(vi, -1)
		case tv.Kind == query.EdgeVar:
			s.edges = append(s.edges, vi)
			if l := &s.labels[s.slot[vi]]; !slices.Contains(s.wantLabels, l) {
				l.found = false
				s.wantLabels = append(s.wantLabels, l)
			}
		default:
			s.unproven = append(s.unproven, vi)
			if e := &s.extrema[s.slot[vi]]; !slices.Contains(s.wantExtrema, e) {
				e.any = false
				s.wantExtrema = append(s.wantExtrema, e)
			}
		}
	}
	if len(s.edges)+len(s.unproven) == 0 {
		return s.res
	}
	s.r.stats.HoodRuns++
	s.r.stats.HoodNodes += s.hood.Visit(s.g, v.Matches, s.diameter, s.visit)
	for _, vi := range s.edges {
		if !s.labels[s.slot[vi]].found {
			block(vi, -1)
		}
	}
	for _, vi := range s.unproven {
		// The walk covered the ball: the cap is the highest ladder level
		// some neighborhood value can satisfy; -1 when there is none.
		top := len(t.Vars[vi].Ladder) - 1
		for top >= 0 && !s.satisfiable(vi, top) {
			top--
		}
		if v.Q.I[vi]+1 > top {
			block(vi, top)
		}
	}
	return s.res
}

// visit takes in one neighborhood node — the wanted extrema, and the wanted
// edge labels leaving it (its out-signature rules one out without touching
// its adjacency) — and reports whether every pending step is now proven.
func (s *spawner) visit(n graph.NodeID) bool {
	g, moved := s.g, false
	if len(s.unproven) > 0 {
		label := g.NodeLabelID(n)
		for _, e := range s.wantExtrema {
			if e.label != label {
				continue
			}
			val := g.AttrValue(n, e.attr)
			switch {
			case val.IsNull():
				continue
			case !e.any:
				e.lo, e.hi, e.any = val, val, true
			case val.Compare(e.lo) < 0:
				e.lo = val
			case val.Compare(e.hi) > 0:
				e.hi = val
			default:
				continue
			}
			moved = true
		}
	}
	if len(s.wantLabels) > 0 {
		sig := g.OutSignature(n)
		s.wantLabels = slices.DeleteFunc(s.wantLabels, func(l *hoodLabel) bool {
			l.found = sig&l.sigBit != 0 && g.RunLen(n, l.label, true) > 0
			return l.found
		})
	}
	if moved {
		// Extrema only widen, so a proven step stays proven.
		s.unproven = slices.DeleteFunc(s.unproven, func(vi int) bool { return s.satisfiable(vi, s.levels[vi]+1) })
	}
	return len(s.wantLabels) == 0 && len(s.unproven) == 0
}

// satisfiable reports whether vi's extrema admit a value at ladder level l.
func (s *spawner) satisfiable(vi, l int) bool {
	tv, e := &s.r.cfg.Template.Vars[vi], &s.extrema[s.slot[vi]]
	return e.any && predicateSatisfiable(tv.Op, tv.Ladder[l], e.lo, e.hi)
}

// predicateSatisfiable reports whether "A op bound" can hold for some value
// in [lo, hi].
func predicateSatisfiable(op graph.Op, bound, lo, hi graph.Value) bool {
	switch op {
	case graph.OpGE:
		return hi.Compare(bound) >= 0
	case graph.OpGT:
		return hi.Compare(bound) > 0
	case graph.OpLE:
		return lo.Compare(bound) <= 0
	case graph.OpLT:
		return lo.Compare(bound) < 0
	case graph.OpEQ:
		return lo.Compare(bound) <= 0 && hi.Compare(bound) >= 0
	default:
		return true
	}
}
