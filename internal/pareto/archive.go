package pareto

import "cmp"

// UpdateCase identifies which branch of the paper's Update procedure
// (Fig. 5) handled an instance.
type UpdateCase uint8

const (
	// Rejected means the instance was dominated and not added.
	Rejected UpdateCase = iota
	// ReplacedBoxes is Case 1: the instance's box dominates existing boxes,
	// whose representatives were evicted.
	ReplacedBoxes
	// ReplacedInstance is Case 2: the instance falls into an occupied box
	// and dominates that box's representative.
	ReplacedInstance
	// AddedBox is Case 3: the instance opens a new non-dominated box.
	AddedBox
)

// String names the case.
func (c UpdateCase) String() string {
	switch c {
	case Rejected:
		return "rejected"
	case ReplacedBoxes:
		return "replaced-boxes"
	case ReplacedInstance:
		return "replaced-instance"
	case AddedBox:
		return "added-box"
	default:
		return "unknown"
	}
}

// Entry pairs a payload with its quality point and box.
type Entry[T any] struct {
	Point   Point
	Box     Box
	Payload T
}

// Result reports what Update did.
type Result[T any] struct {
	Case UpdateCase
	// Accepted is true when the instance entered the archive.
	Accepted bool
	// Evicted lists payloads removed to make room (Cases 1 and 2).
	Evicted []T
}

// Archive maintains an ε-Pareto set over a stream of (point, payload)
// pairs: each occupied box holds exactly one representative, boxes never
// dominate each other, and every instance ever offered is ε-dominated by
// some archived representative. It implements procedure Update of the
// paper with its three cases.
type Archive[T any] struct {
	eps     float64
	key     func(T) string
	entries []Entry[T]
}

// NewArchive returns an empty archive with tolerance eps (> 0).
func NewArchive[T any](eps float64) *Archive[T] { return NewKeyedArchive[T](eps, nil) }

// NewKeyedArchive is NewArchive whose payloads break in-box ties between
// equal points by key, the smaller winning (nil: the incumbent stays), so
// every box's representative, and with it the whole archive, depends only on
// the set of points and payloads offered, not on their order (see Update).
func NewKeyedArchive[T any](eps float64, key func(T) string) *Archive[T] {
	if eps <= 0 {
		panic("pareto: archive eps must be positive")
	}
	return &Archive[T]{eps: eps, key: key}
}

// Eps returns the current tolerance.
func (a *Archive[T]) Eps() float64 { return a.eps }

// Len returns the number of archived representatives.
func (a *Archive[T]) Len() int { return len(a.entries) }

// Entries returns the archived entries; callers must not mutate the slice.
func (a *Archive[T]) Entries() []Entry[T] { return a.entries }

// Points returns the archived quality points.
func (a *Archive[T]) Points() []Point {
	ps := make([]Point, len(a.entries))
	for i := range a.entries {
		ps[i] = a.entries[i].Point
	}
	return ps
}

// Payloads returns the archived payloads.
func (a *Archive[T]) Payloads() []T {
	out := make([]T, len(a.entries))
	for i := range a.entries {
		out[i] = a.entries[i].Payload
	}
	return out
}

// Update offers one instance to the archive, applying the paper's case
// analysis:
//
//	Case 1 — the instance's box strictly dominates one or more archived
//	boxes: evict their representatives, add the instance.
//	Case 2 — the instance lands in an occupied box: keep the greater of the
//	two representatives in a total order that extends dominance — the point
//	lexicographically (δ, then f), then the smaller key — so the box ends up
//	with the greatest of everything offered to it, whatever the order.
//	Case 3 — no archived box weakly dominates the instance's box: add it
//	as a new box representative.
//	Otherwise the instance is rejected.
func (a *Archive[T]) Update(p Point, payload T) Result[T] {
	box := BoxOf(p, a.eps)
	// Case 1: box-level dominance over existing boxes.
	var dominated []int
	for i := range a.entries {
		if box.Dominates(a.entries[i].Box) {
			dominated = append(dominated, i)
		}
	}
	if len(dominated) > 0 {
		res := Result[T]{Case: ReplacedBoxes, Accepted: true}
		kept := a.entries[:0]
		di := 0
		for i := range a.entries {
			if di < len(dominated) && dominated[di] == i {
				res.Evicted = append(res.Evicted, a.entries[i].Payload)
				di++
				continue
			}
			kept = append(kept, a.entries[i])
		}
		a.entries = append(kept, Entry[T]{Point: p, Box: box, Payload: payload})
		return res
	}
	// Case 2: same box as an incumbent.
	for i := range a.entries {
		if a.entries[i].Box == box {
			if a.wins(p, payload, a.entries[i]) {
				evicted := a.entries[i].Payload
				a.entries[i] = Entry[T]{Point: p, Box: box, Payload: payload}
				return Result[T]{Case: ReplacedInstance, Accepted: true, Evicted: []T{evicted}}
			}
			return Result[T]{Case: Rejected}
		}
	}
	// Case 3: add if no box weakly dominates ours.
	for i := range a.entries {
		if a.entries[i].Box.WeaklyDominates(box) {
			return Result[T]{Case: Rejected}
		}
	}
	a.entries = append(a.entries, Entry[T]{Point: p, Box: box, Payload: payload})
	return Result[T]{Case: AddedBox, Accepted: true}
}

// MergeStats tallies what a bulk Merge did.
type MergeStats struct {
	// Accepted counts offered entries that entered the archive (Cases 1-3).
	Accepted int `json:"accepted"`
	// Rejected counts offered entries the archive dominated away.
	Rejected int `json:"rejected"`
	// Evicted counts previously archived representatives displaced by
	// accepted entries.
	Evicted int `json:"evicted"`
}

// Add folds another merge's tallies in.
func (s *MergeStats) Add(o MergeStats) {
	s.Accepted += o.Accepted
	s.Rejected += o.Rejected
	s.Evicted += o.Evicted
}

// Merge unions a batch of entries into the archive by offering each to
// Update, so the result stays inside the ε-Pareto contract for the combined
// point stream. Each box survives iff no offered box strictly dominates it
// and keeps the greatest representative offered to it, so slab archives
// merged in any order give one archive. Entry Box fields are recomputed under
// the receiver's ε, so archives with different tolerances merge correctly
// (Lemma 4: established ε-dominance survives any larger ε').
func (a *Archive[T]) Merge(entries []Entry[T]) MergeStats {
	var st MergeStats
	for i := range entries {
		res := a.Update(entries[i].Point, entries[i].Payload)
		if res.Accepted {
			st.Accepted++
		} else {
			st.Rejected++
		}
		st.Evicted += len(res.Evicted)
	}
	return st
}

// Classify reports which Update case would apply for (p, payload) without
// mutating the archive; OnlineQGen uses it to decide whether an arrival would
// grow the set before committing.
func (a *Archive[T]) Classify(p Point, payload T) UpdateCase {
	box := BoxOf(p, a.eps)
	for i := range a.entries {
		if box.Dominates(a.entries[i].Box) {
			return ReplacedBoxes
		}
	}
	for i := range a.entries {
		if a.entries[i].Box == box {
			if a.wins(p, payload, a.entries[i]) {
				return ReplacedInstance
			}
			return Rejected
		}
	}
	for i := range a.entries {
		if a.entries[i].Box.WeaklyDominates(box) {
			return Rejected
		}
	}
	return AddedBox
}

// wins reports whether (p, payload) beats e, the incumbent of its box, in
// Update's Case 2 order.
func (a *Archive[T]) wins(p Point, payload T, e Entry[T]) bool {
	c := cmp.Or(cmp.Compare(p.Div, e.Point.Div), cmp.Compare(p.Cov, e.Point.Cov))
	if c == 0 && a.key != nil {
		c = cmp.Compare(a.key(e.Payload), a.key(payload))
	}
	return c > 0
}

// SetEps changes the tolerance and re-buckets every archived entry,
// re-running the case analysis so the archive's invariants hold under the
// new, larger ε (Lemma 4 guarantees previously established ε-dominance is
// preserved). Entries that become dominated are dropped and returned.
func (a *Archive[T]) SetEps(eps float64) []T {
	if eps <= 0 {
		panic("pareto: archive eps must be positive")
	}
	old := a.entries
	a.eps = eps
	a.entries = nil
	var dropped []T
	for _, e := range old {
		res := a.Update(e.Point, e.Payload)
		if !res.Accepted {
			dropped = append(dropped, e.Payload)
		}
		dropped = append(dropped, res.Evicted...)
	}
	return dropped
}

// Remove deletes the entry at index i and returns its payload.
func (a *Archive[T]) Remove(i int) T {
	e := a.entries[i]
	a.entries = append(a.entries[:i], a.entries[i+1:]...)
	return e.Payload
}

// NearestNeighbor returns the index of the archived entry closest to p in
// the range-normalized (δ, f) space and the distance; -1 when empty.
func (a *Archive[T]) NearestNeighbor(p Point, divMax, covMax float64) (int, float64) {
	best, bestD := -1, 0.0
	for i := range a.entries {
		d := Distance(p, a.entries[i].Point, divMax, covMax)
		if best < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

// EpsDominatesAll reports whether every point in ref is ε-dominated by some
// archived entry under the archive's current ε: the archive is a valid
// ε-Pareto set for ref.
func (a *Archive[T]) EpsDominatesAll(ref []Point) bool {
	for _, r := range ref {
		ok := false
		for i := range a.entries {
			if EpsDominates(a.entries[i].Point, r, a.eps) {
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
