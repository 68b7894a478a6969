package pareto

import (
	"math/rand"
	"testing"
)

func TestArchiveUpdateCases(t *testing.T) {
	a := NewArchive[string](0.5)
	// First instance: new box (Case 3).
	res := a.Update(Point{1, 1}, "p1")
	if res.Case != AddedBox || !res.Accepted || a.Len() != 1 {
		t.Fatalf("first update: %+v", res)
	}
	// Dominating box: Case 1 evicts.
	res = a.Update(Point{10, 10}, "p2")
	if res.Case != ReplacedBoxes || len(res.Evicted) != 1 || res.Evicted[0] != "p1" {
		t.Fatalf("case 1: %+v", res)
	}
	if a.Len() != 1 {
		t.Fatalf("len = %d", a.Len())
	}
	// Same box, dominating point: Case 2 swap. At ε=0.5 the box index of
	// 10 is ⌊log1p(10)/log1p(0.5)⌋ = 5, covering values in [6.59, 10.39),
	// so (10.3, 10.2) shares the box and dominates (10, 10).
	res = a.Update(Point{10.3, 10.2}, "p3")
	if res.Case != ReplacedInstance || res.Evicted[0] != "p2" {
		t.Fatalf("case 2: %+v", res)
	}
	// Same box, dominated point: rejected.
	res = a.Update(Point{10.1, 10.1}, "p4")
	if res.Case != Rejected || res.Accepted {
		t.Fatalf("reject in box: %+v", res)
	}
	// Incomparable box: added.
	res = a.Update(Point{0.2, 100}, "p5")
	if res.Case != AddedBox || a.Len() != 2 {
		t.Fatalf("incomparable: %+v len=%d", res, a.Len())
	}
	// Dominated box: rejected.
	res = a.Update(Point{0.1, 50}, "p6")
	if res.Case != Rejected {
		t.Fatalf("dominated box: %+v", res)
	}
}

// TestKeyedArchiveTies: two payloads at one point keep the smaller key,
// offered in either order, and Classify says so beforehand.
func TestKeyedArchiveTies(t *testing.T) {
	for _, order := range [][]string{{"a", "b"}, {"b", "a"}} {
		a := NewKeyedArchive(0.5, func(s string) string { return s })
		a.Update(Point{3, 4}, order[0])
		if c := a.Classify(Point{3, 4}, order[1]); (c == ReplacedInstance) != (order[1] == "a") {
			t.Errorf("offer %v: Classify says %v", order, c)
		}
		a.Update(Point{3, 4}, order[1])
		if got := a.Payloads(); len(got) != 1 || got[0] != "a" {
			t.Errorf("offer %v: archive keeps %v, want [a]", order, got)
		}
	}
}

func TestArchiveClassifyMatchesUpdate(t *testing.T) {
	const seed = 5 // fixed and logged so a failing iteration reproduces
	rng := rand.New(rand.NewSource(seed))
	a := NewArchive[int](0.3)
	for i := 0; i < 500; i++ {
		p := Point{Div: float64(rng.Intn(40)), Cov: float64(rng.Intn(40))}
		want := a.Classify(p, i)
		got := a.Update(p, i)
		if got.Case != want {
			t.Fatalf("seed %d iteration %d: Classify=%v Update=%v for %v", seed, i, want, got.Case, p)
		}
	}
}

// TestArchiveInvariants feeds random points and checks after every update:
// entries are mutually box-non-dominated, every offered point is
// ε-dominated by some entry, and the size bound holds.
func TestArchiveInvariants(t *testing.T) {
	const seed = 77 // fixed and logged so a failing stream reproduces
	for _, eps := range []float64{0.05, 0.2, 0.5, 1.0} {
		rng := rand.New(rand.NewSource(seed))
		a := NewArchive[int](eps)
		var seen []Point
		maxVal := 60.0
		for i := 0; i < 400; i++ {
			p := Point{Div: rng.Float64() * maxVal, Cov: rng.Float64() * maxVal}
			seen = append(seen, p)
			a.Update(p, i)
			// (1) mutual non-dominance at box level.
			es := a.Entries()
			for x := range es {
				for y := range es {
					if x != y && es[x].Box.WeaklyDominates(es[y].Box) {
						t.Fatalf("seed %d eps=%v: archive boxes %v ⪰ %v", seed, eps, es[x].Box, es[y].Box)
					}
				}
			}
			// (2) ε-domination of everything seen.
			if !a.EpsDominatesAll(seen) {
				t.Fatalf("seed %d eps=%v iter %d: archive does not ε-dominate the stream", seed, eps, i)
			}
			// (3) size bound: one representative per non-dominated box on a
			// staircase — at most boxes-per-axis entries.
			bound := MaxBoxesPerAxis(maxVal, eps)
			if a.Len() > bound {
				t.Fatalf("seed %d eps=%v: |archive| = %d > bound %d", seed, eps, a.Len(), bound)
			}
		}
	}
}

func TestArchiveSetEps(t *testing.T) {
	a := NewArchive[int](0.05)
	rng := rand.New(rand.NewSource(3))
	var seen []Point
	for i := 0; i < 200; i++ {
		p := Point{Div: rng.Float64() * 30, Cov: rng.Float64() * 30}
		seen = append(seen, p)
		a.Update(p, i)
	}
	before := a.Len()
	a.SetEps(0.5)
	if a.Eps() != 0.5 {
		t.Error("eps not updated")
	}
	if a.Len() > before {
		t.Error("coarser boxes cannot grow the archive")
	}
	if !a.EpsDominatesAll(seen) {
		t.Error("after SetEps the archive must still ε-dominate all seen points (Lemma 4)")
	}
}

func TestArchiveRemoveAndNearest(t *testing.T) {
	a := NewArchive[string](0.3)
	a.Update(Point{10, 1}, "hiDiv")
	a.Update(Point{1, 10}, "hiCov")
	idx, d := a.NearestNeighbor(Point{9, 1.5}, 10, 10)
	if idx < 0 || a.Entries()[idx].Payload != "hiDiv" {
		t.Fatalf("nearest = %d (d=%v)", idx, d)
	}
	got := a.Remove(idx)
	if got != "hiDiv" || a.Len() != 1 {
		t.Errorf("Remove = %q len=%d", got, a.Len())
	}
	idx, _ = a.NearestNeighbor(Point{0, 0}, 0, 0)
	if a.Entries()[idx].Payload != "hiCov" {
		t.Error("nearest after remove wrong")
	}
	empty := NewArchive[string](0.3)
	if idx, _ := empty.NearestNeighbor(Point{1, 1}, 1, 1); idx != -1 {
		t.Error("empty archive nearest should be -1")
	}
}

func TestArchivePanicsOnBadEps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for eps <= 0")
		}
	}()
	NewArchive[int](0)
}

func TestArchiveAccessors(t *testing.T) {
	a := NewArchive[string](0.4)
	a.Update(Point{5, 1}, "x")
	a.Update(Point{1, 5}, "y")
	if len(a.Points()) != 2 || len(a.Payloads()) != 2 {
		t.Error("accessors wrong")
	}
	if got := UpdateCase(99).String(); got != "unknown" {
		t.Errorf("unknown case = %q", got)
	}
	for c, want := range map[UpdateCase]string{
		Rejected: "rejected", ReplacedBoxes: "replaced-boxes",
		ReplacedInstance: "replaced-instance", AddedBox: "added-box",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q", c, c.String())
		}
	}
}

func TestIndicators(t *testing.T) {
	ref := []Point{{10, 1}, {5, 5}, {1, 10}}
	// The reference itself is a perfect approximation.
	if got := MinEps(ref, ref); got != 0 {
		t.Errorf("MinEps(ref, ref) = %v", got)
	}
	if got := EpsIndicator(ref, ref, 0.5); got != 1 {
		t.Errorf("I_eps(ref) = %v", got)
	}
	// A subset needs some ε.
	sub := []Point{{10, 1}, {1, 10}}
	em := MinEps(sub, ref)
	if em <= 0 {
		t.Errorf("MinEps(sub) = %v, want > 0", em)
	}
	// Empty approximation set.
	if got := MinEps(nil, ref); got == 0 {
		t.Error("empty approx should need infinite ε")
	}
	if got := MinEps(sub, nil); got != 0 {
		t.Error("empty reference needs ε = 0")
	}
	// R-indicator favors coverage under high λ_R.
	hiCov := []Point{{1, 10}}
	hiDiv := []Point{{10, 1}}
	rc := RIndicator(hiCov, 0.9, 10, 10)
	rd := RIndicator(hiDiv, 0.9, 10, 10)
	if rc <= rd {
		t.Errorf("λ_R=0.9 must reward coverage: %v vs %v", rc, rd)
	}
	if got := RIndicator(nil, 0.5, 10, 10); got != 0 {
		t.Errorf("I_R(∅) = %v", got)
	}
	// Values above the normalizer clamp into [0,1].
	if got := RIndicator([]Point{{20, 20}}, 0.5, 10, 10); got != 0.5 {
		t.Errorf("clamped I_R = %v, want 0.5", got)
	}
}

func TestHypervolume(t *testing.T) {
	if got := Hypervolume(nil, 10, 10); got != 0 {
		t.Errorf("HV(∅) = %v", got)
	}
	// A single point at the corner dominates everything.
	if got := Hypervolume([]Point{{10, 10}}, 10, 10); got != 1 {
		t.Errorf("HV(corner) = %v", got)
	}
	// Half coverage.
	if got := Hypervolume([]Point{{5, 10}}, 10, 10); got != 0.5 {
		t.Errorf("HV(half) = %v", got)
	}
	// Staircase is additive.
	got := Hypervolume([]Point{{10, 5}, {5, 10}}, 10, 10)
	if got != 0.75 {
		t.Errorf("HV(staircase) = %v, want 0.75", got)
	}
}
