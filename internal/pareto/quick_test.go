package pareto

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// pointSeq is a quick-generatable sequence of bounded points.
type pointSeq []Point

func (pointSeq) Generate(r *rand.Rand, size int) reflect.Value {
	n := 1 + r.Intn(size+1)
	ps := make(pointSeq, n)
	for i := range ps {
		ps[i] = Point{Div: r.Float64() * 50, Cov: float64(r.Intn(50))}
	}
	return reflect.ValueOf(ps)
}

// TestQuickArchiveEpsContract: for any point sequence, the archive
// ε-dominates every offered point, in any of several tolerances.
func TestQuickArchiveEpsContract(t *testing.T) {
	f := func(ps pointSeq) bool {
		for _, eps := range []float64{0.1, 0.4} {
			a := NewArchive[int](eps)
			for i, p := range ps {
				a.Update(p, i)
			}
			if !a.EpsDominatesAll(ps) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickArchiveMutualNonDominance: no archived point ever dominates
// another archived point.
func TestQuickArchiveMutualNonDominance(t *testing.T) {
	f := func(ps pointSeq) bool {
		a := NewArchive[int](0.25)
		for i, p := range ps {
			a.Update(p, i)
		}
		pts := a.Points()
		for i := range pts {
			for j := range pts {
				if i != j && Dominates(pts[i], pts[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickKungCoversAll: the Kung front weakly dominates every input, so
// it can stand in for the inputs as an indicator reference: any set's ε_m
// against the front equals its ε_m against all inputs, and the coordinate
// maxima are the same.
func TestQuickKungCoversAll(t *testing.T) {
	f := func(ps, approx pointSeq) bool {
		front := make([]Point, 0, len(ps))
		for _, i := range Kung(ps) {
			front = append(front, ps[i])
		}
		for _, p := range ps {
			ok := false
			for _, q := range front {
				if WeaklyDominates(q, p) {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		if MinEps(approx, ps) != MinEps(approx, front) {
			return false
		}
		return maxima(ps) == maxima(front)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// maxima returns the largest Div and the largest Cov over ps.
func maxima(ps []Point) Point {
	var m Point
	for _, p := range ps {
		m.Div, m.Cov = max(m.Div, p.Div), max(m.Cov, p.Cov)
	}
	return m
}

// TestQuickDominanceIrreflexiveAntisymmetric.
func TestQuickDominanceProperties(t *testing.T) {
	f := func(ad, ac, bd, bc float64) bool {
		a := Point{Div: math.Abs(ad), Cov: math.Abs(ac)}
		b := Point{Div: math.Abs(bd), Cov: math.Abs(bc)}
		if Dominates(a, a) {
			return false // irreflexive
		}
		if Dominates(a, b) && Dominates(b, a) {
			return false // antisymmetric
		}
		// Dominance implies weak dominance and 0-ε-dominance.
		if Dominates(a, b) && (!WeaklyDominates(a, b) || !EpsDominates(a, b, 1e-12)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickBoxMonotone: box indices are monotone in the point coordinates.
func TestQuickBoxMonotone(t *testing.T) {
	f := func(x, y float64, e uint8) bool {
		eps := 0.05 + float64(e%40)/40
		a, b := math.Abs(x), math.Abs(y)
		if a > b {
			a, b = b, a
		}
		ba := BoxOf(Point{Div: a, Cov: a}, eps)
		bb := BoxOf(Point{Div: b, Cov: b}, eps)
		return bb.DI >= ba.DI && bb.FI >= ba.FI
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickMinEpsIsSufficient: the returned ε_m actually makes the set an
// ε_m-Pareto set of the reference.
func TestQuickMinEpsIsSufficient(t *testing.T) {
	f := func(approx, ref pointSeq) bool {
		em := MinEps(approx, ref)
		if math.IsInf(em, 1) {
			return true
		}
		for _, r := range ref {
			ok := false
			for _, a := range approx {
				if EpsDominates(a, r, em+1e-9) {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
