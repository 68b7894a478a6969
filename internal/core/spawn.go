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

	// Scratch reused across refine calls: the walker, the restriction
	// handed to query.RefineStepsRestricted, and the variables (then the
	// extrema and label slots) the current walk was made for.
	hood        graph.Neighborhood
	res         query.Restriction
	pending     []int
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
	s.pending, s.wantExtrema, s.wantLabels = s.pending[:0], s.wantExtrema[:0], s.wantLabels[:0]
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
			s.pending = append(s.pending, vi)
			if l := &s.labels[s.slot[vi]]; !slices.Contains(s.wantLabels, l) {
				l.found = false
				s.wantLabels = append(s.wantLabels, l)
			}
		default:
			s.pending = append(s.pending, vi)
			if e := &s.extrema[s.slot[vi]]; !slices.Contains(s.wantExtrema, e) {
				e.any = false
				s.wantExtrema = append(s.wantExtrema, e)
			}
		}
	}
	if len(s.pending) == 0 {
		return s.res
	}
	nodes := s.hood.Walk(s.g, v.Matches, s.diameter)
	s.r.stats.HoodRuns++
	s.r.stats.HoodNodes += len(nodes)
	s.collect(nodes)
	for _, vi := range s.pending {
		tv := &t.Vars[vi]
		if tv.Kind == query.EdgeVar {
			if !s.labels[s.slot[vi]].found {
				block(vi, -1)
			}
			continue
		}
		// The cap is the highest ladder level some neighborhood value can
		// still satisfy; -1 when there is none (or no value at all).
		e := &s.extrema[s.slot[vi]]
		top := -1
		for l := len(tv.Ladder) - 1; l >= 0 && e.any; l-- {
			if predicateSatisfiable(tv.Op, tv.Ladder[l], e.lo, e.hi) {
				top = l
				break
			}
		}
		if v.Q.I[vi]+1 > top {
			block(vi, top)
		} else {
			s.res.Caps[vi] = top
		}
	}
	return s.res
}

// collect makes the one pass over the neighborhood: the wanted attribute
// extrema, and which of the wanted edge labels leave some node. A node's
// out-signature rules a label out without touching its adjacency.
func (s *spawner) collect(nodes []graph.NodeID) {
	g := s.g
	toFind := len(s.wantLabels)
	for _, n := range nodes {
		if len(s.wantExtrema) > 0 {
			label := g.NodeLabelID(n)
			for _, e := range s.wantExtrema {
				if e.label != label {
					continue
				}
				val := g.AttrValue(n, e.attr)
				switch {
				case val.IsNull():
				case !e.any:
					e.lo, e.hi, e.any = val, val, true
				case val.Compare(e.lo) < 0:
					e.lo = val
				case val.Compare(e.hi) > 0:
					e.hi = val
				}
			}
		} else if toFind == 0 {
			return
		}
		if toFind > 0 {
			sig := g.OutSignature(n)
			for _, l := range s.wantLabels {
				if !l.found && sig&l.sigBit != 0 && g.RunLen(n, l.label, true) > 0 {
					l.found = true
					toFind--
				}
			}
		}
	}
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
