package query

import "fairsqg/internal/graph"

// forEachRefineStep calls step(vi, level) for every one-variable refinement
// of in, in variable then level order: the one loop behind RefineSteps and
// NumRefineSteps. For chain-ordered range variables (<, <=, >=, >) the
// wildcard steps to ladder level 0 and level l to l+1. For equality
// variables the wildcard steps to every ladder value (each a one-step
// refinement) and a bound value has no further refinement. Edge variables
// step from absent (0) to present (1).
func forEachRefineStep(t *Template, in Instantiation, step func(vi, level int)) {
	for vi := range t.Vars {
		v := &t.Vars[vi]
		level := in[vi]
		switch v.Kind {
		case EdgeVar:
			if level == 0 || level == Wildcard {
				step(vi, 1)
			}
		case RangeVar:
			if v.Op == graph.OpEQ {
				if level == Wildcard {
					for l := range v.Ladder {
						step(vi, l)
					}
				}
				continue
			}
			next := level + 1 // Wildcard is -1: the wildcard steps to level 0
			if next < len(v.Ladder) {
				step(vi, next)
			}
		}
	}
}

// RefineSteps returns the instantiations reachable from in by refining
// exactly one variable to its next value in the corresponding ladder: the
// children of in in the instance lattice (Section IV, "Instance Lattice").
func RefineSteps(t *Template, in Instantiation) []Instantiation {
	n := NumRefineSteps(t, in)
	if n == 0 {
		return nil
	}
	out := make([]Instantiation, 0, n)
	forEachRefineStep(t, in, func(vi, level int) {
		out = append(out, withBinding(in, vi, level))
	})
	return out
}

// NumRefineSteps is len(RefineSteps(t, in)) without building the children.
func NumRefineSteps(t *Template, in Instantiation) int {
	n := 0
	forEachRefineStep(t, in, func(int, int) { n++ })
	return n
}

// RelaxSteps returns the instantiations reachable from in by relaxing
// exactly one variable by one step: the parents of in in the instance
// lattice. It is the inverse of RefineSteps and drives the backward
// (SpawnB) exploration of BiQGen.
func RelaxSteps(t *Template, in Instantiation) []Instantiation {
	var out []Instantiation
	for vi := range t.Vars {
		v := &t.Vars[vi]
		level := in[vi]
		switch v.Kind {
		case EdgeVar:
			if level == 1 {
				out = append(out, withBinding(in, vi, 0))
			}
		case RangeVar:
			if v.Op == graph.OpEQ {
				if level != Wildcard {
					out = append(out, withBinding(in, vi, Wildcard))
				}
				continue
			}
			switch {
			case level == 0:
				out = append(out, withBinding(in, vi, Wildcard))
			case level > 0:
				out = append(out, withBinding(in, vi, level-1))
			}
		}
	}
	return out
}

func withBinding(in Instantiation, vi, level int) Instantiation {
	out := in.Clone()
	out[vi] = level
	return out
}

// ChainLength returns, for chain-ordered variables, the number of
// refinement steps from the root to the most refined binding; used by cost
// models and tests.
func ChainLength(v *Variable) int {
	switch v.Kind {
	case EdgeVar:
		return 1
	default:
		if v.Op == graph.OpEQ {
			return 1
		}
		return len(v.Ladder)
	}
}
