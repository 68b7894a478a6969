package pareto

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// propertySeed fixes the randomized property-test fixtures; it is logged on
// every failure so a counterexample reproduces exactly.
const propertySeed = 90317

// propertyEpsilons spans small and coarse boxing scales.
var propertyEpsilons = []float64{0.05, 0.25, 0.8}

// randomPoints draws n points with ties made likely: coordinates are drawn
// from a small grid plus occasional jitter, so same-box and exactly-equal
// points both occur.
func propertyPoints(rng *rand.Rand, n int) []Point {
	ps := make([]Point, n)
	for i := range ps {
		ps[i] = Point{
			Div: float64(rng.Intn(12)) * 0.7,
			Cov: float64(rng.Intn(12)),
		}
		if rng.Intn(3) == 0 {
			ps[i].Div += rng.Float64()
			ps[i].Cov += rng.Float64()
		}
	}
	return ps
}

// fillArchive offers points in order; payload is the insertion index.
func fillArchive(eps float64, ps []Point) *Archive[int] {
	a := NewArchive[int](eps)
	for i, p := range ps {
		a.Update(p, i)
	}
	return a
}

// boxSet renders the occupied boxes in canonical sorted order.
func boxSet(a *Archive[int]) []Box {
	out := make([]Box, 0, a.Len())
	for _, e := range a.Entries() {
		out = append(out, e.Box)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].DI != out[j].DI {
			return out[i].DI < out[j].DI
		}
		return out[i].FI < out[j].FI
	})
	return out
}

// pointSet renders the archived points keyed by box in canonical order.
func pointSet(a *Archive[int]) []string {
	out := make([]string, 0, a.Len())
	for _, e := range a.Entries() {
		out = append(out, fmt.Sprintf("%d,%d:%.9f,%.9f", e.Box.DI, e.Box.FI, e.Point.Div, e.Point.Cov))
	}
	sort.Strings(out)
	return out
}

func equalBoxes(a, b []Box) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestArchiveBoxSetOrderIndependent: for any point set, the set of occupied
// boxes after offering every point is independent of insertion order — it is
// exactly the maximal boxes under box dominance, a function of the point set
// alone — and so is each box's representative point, the lexicographically
// greatest offered to it.
func TestArchiveBoxSetOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(propertySeed))
	for trial := 0; trial < 60; trial++ {
		ps := propertyPoints(rng, 1+rng.Intn(40))
		for _, eps := range propertyEpsilons {
			want := boxSet(fillArchive(eps, ps))
			for perm := 0; perm < 8; perm++ {
				shuffled := append([]Point(nil), ps...)
				rng.Shuffle(len(shuffled), func(i, j int) {
					shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
				})
				a := fillArchive(eps, shuffled)
				if got := boxSet(a); !equalBoxes(got, want) {
					t.Fatalf("seed %d trial %d eps=%v perm %d: box set depends on insertion order:\ngot  %v\nwant %v\npoints %v",
						propertySeed, trial, eps, perm, got, want, shuffled)
				}
				if got, want := pointSet(a), pointSet(fillArchive(eps, ps)); !equalStringSlices(got, want) {
					t.Fatalf("seed %d trial %d eps=%v perm %d: representatives depend on insertion order:\ngot  %v\nwant %v",
						propertySeed, trial, eps, perm, got, want)
				}
			}
		}
	}
}

// TestArchiveOrderIndependentDistinctBoxes: when every offered point
// occupies a distinct box, the whole archive — boxes and their
// representative points — is insertion-order independent.
func TestArchiveOrderIndependentDistinctBoxes(t *testing.T) {
	rng := rand.New(rand.NewSource(propertySeed + 1))
	for trial := 0; trial < 60; trial++ {
		raw := propertyPoints(rng, 1+rng.Intn(40))
		for _, eps := range propertyEpsilons {
			seen := map[Box]bool{}
			var ps []Point
			for _, p := range raw {
				if b := BoxOf(p, eps); !seen[b] {
					seen[b] = true
					ps = append(ps, p)
				}
			}
			want := pointSet(fillArchive(eps, ps))
			for perm := 0; perm < 8; perm++ {
				shuffled := append([]Point(nil), ps...)
				rng.Shuffle(len(shuffled), func(i, j int) {
					shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
				})
				a := fillArchive(eps, shuffled)
				if got := pointSet(a); !equalStringSlices(got, want) {
					t.Fatalf("seed %d trial %d eps=%v perm %d: archive depends on insertion order:\ngot  %v\nwant %v\npoints %v",
						propertySeed, trial, eps, perm, got, want, shuffled)
				}
			}
		}
	}
}

// TestArchiveMutualIncomparability: archived entries are pairwise
// incomparable at both levels the Update procedure works at — no archived
// point dominates another, and no archived box weakly dominates another
// (distinct boxes, none ε-redundant). Box incomparability is the archive's
// ε-non-redundancy guarantee: pointwise ε-dominance between entries in
// adjacent incomparable boxes is possible by construction (e.g. ε=0.5,
// (2.3, 1.24) in box (2,1) ε-dominates (1.2, 1.26) in box (1,2), yet the
// boxes are incomparable and both points are archived), so the invariant is
// stated, and tested, at box granularity.
func TestArchiveMutualIncomparability(t *testing.T) {
	rng := rand.New(rand.NewSource(propertySeed + 2))
	for trial := 0; trial < 120; trial++ {
		ps := propertyPoints(rng, 1+rng.Intn(50))
		for _, eps := range propertyEpsilons {
			a := fillArchive(eps, ps)
			es := a.Entries()
			for i := range es {
				for j := range es {
					if i == j {
						continue
					}
					if Dominates(es[i].Point, es[j].Point) {
						t.Fatalf("seed %d trial %d eps=%v: archived point %v dominates archived %v",
							propertySeed, trial, eps, es[i].Point, es[j].Point)
					}
					if es[i].Box.WeaklyDominates(es[j].Box) {
						t.Fatalf("seed %d trial %d eps=%v: archived box %v weakly dominates archived %v (points %v, %v)",
							propertySeed, trial, eps, es[i].Box, es[j].Box, es[i].Point, es[j].Point)
					}
				}
			}
		}
	}
}

// TestArchiveEpsContractUnderShuffles ties the two halves together: in every
// insertion order the final archive ε-dominates the complete offered set.
func TestArchiveEpsContractUnderShuffles(t *testing.T) {
	rng := rand.New(rand.NewSource(propertySeed + 3))
	for trial := 0; trial < 60; trial++ {
		ps := propertyPoints(rng, 1+rng.Intn(40))
		for _, eps := range propertyEpsilons {
			for perm := 0; perm < 4; perm++ {
				shuffled := append([]Point(nil), ps...)
				rng.Shuffle(len(shuffled), func(i, j int) {
					shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
				})
				if a := fillArchive(eps, shuffled); !a.EpsDominatesAll(ps) {
					t.Fatalf("seed %d trial %d eps=%v perm %d: archive %v does not ε-dominate offered set %v",
						propertySeed, trial, eps, perm, a.Points(), ps)
				}
			}
		}
	}
}

func equalStringSlices(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
