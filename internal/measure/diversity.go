package measure

import (
	"math/bits"
	"runtime"
	"sync"

	"fairsqg/internal/graph"
)

// RelevanceFunc scores the relevance r(u_o, v) of a match in [0,1].
type RelevanceFunc func(v graph.NodeID) float64

// DistanceFunc scores the dissimilarity d(v, v') of two matches in [0,1].
type DistanceFunc func(v, w graph.NodeID) float64

// ConstantRelevance treats every match as equally relevant with score c.
func ConstantRelevance(c float64) RelevanceFunc {
	return func(graph.NodeID) float64 { return c }
}

// DegreeRelevance scores a match by its total degree normalized by the
// maximum degree observed among nodes with the given label — a stand-in for
// the social-impact relevance the paper cites. Returns a constant 1 scorer
// when the label has no edges.
func DegreeRelevance(g *graph.Graph, label string) RelevanceFunc {
	maxDeg := 0
	for _, v := range g.NodesByLabel(label) {
		if d := g.OutDegree(v) + g.InDegree(v); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg == 0 {
		return ConstantRelevance(1)
	}
	md := float64(maxDeg)
	return func(v graph.NodeID) float64 {
		return float64(g.OutDegree(v)+g.InDegree(v)) / md
	}
}

// TupleDistance builds the paper's default pairwise distance: the
// normalized edit distance between the attribute tuples T(v) and T(v'),
// averaged over the listed attributes. String attributes use normalized
// Levenshtein distance; numeric attributes use |a-b| scaled by the
// attribute's active-domain span. Missing values count as maximally
// distant from present ones and identical to each other.
func TupleDistance(g *graph.Graph, attrs []string) DistanceFunc {
	return NewDistanceFeatures(g, attrs).Func()
}

// Diversity evaluates the max-sum diversity objective
//
//	δ(q, G) = (1−λ) Σ_{v∈q(G)} r(u_o, v) + 2λ/(|V_{u_o}|−1) Σ_{v<v'} d(v, v')
//
// over a match set. |V_{u_o}| is the population of the output label, which
// normalizes the pairwise term so that δ(q, G) ∈ [0, |V_{u_o}|].
//
// Over Features the pair term is exact by column: every column but free
// text sums from one pass over the answer (DistanceFeatures.columnSums),
// and only free-text columns — and a caller's Distance — run a pair loop.
//
// A Diversity counts its pair evaluations and owns scratch, so it serves
// one goroutine at a time; concurrent evaluators each take their own value
// over the same (read-only) Features. A call whose pairs run on Features
// may split its pair loop across goroutines of its own (split); the result
// is the same at any worker count.
type Diversity struct {
	// Lambda balances relevance (0) against dissimilarity (1).
	Lambda float64
	// Relevance is r(u_o, ·); required.
	Relevance RelevanceFunc
	// Distance is d(·,·); required unless Features is set.
	Distance DistanceFunc
	// Features, when set, is the default tuple distance evaluated in place
	// of Distance: its decomposable columns sum exactly by column, and the
	// pair loops over its free-text columns call the compiled rows directly
	// and keep each row's fixed string compiled for the bit-vector kernel,
	// which a DistanceFunc closure cannot do.
	Features *DistanceFeatures
	// LabelPopulation is |V_{u_o}|.
	LabelPopulation int
	// MaxPairs caps the number of pairwise distance evaluations per call.
	// When the match set induces more pairs, the pair loop's sum (Distance,
	// or Features' free-text columns) is estimated from a deterministic
	// sample and scaled; 0 means always exact.
	MaxPairs int

	pairEvals, splits int64
	work              *pairWork // per-worker scratch, grown on first use
}

// pairWork is the scratch of the goroutines a pair loop runs on, one slot
// each (the calling goroutine's loops that never split use slot 0), and the
// column sums'.
type pairWork struct {
	wg     sync.WaitGroup
	shares []pairShare
	cols   colScratch
}

// pairShare is one worker's slot: kernel scratch per free-text column, and
// its share's pair units and S(v) partial sums.
type pairShare struct {
	scr     []levScratch
	contrib []int64
	units   int64
}

// PairEvals returns the number of pairwise distances evaluated so far,
// counted once per scoring call from the loop bounds.
func (d *Diversity) PairEvals() int64 { return d.pairEvals }

// Splits returns the number of scoring calls so far whose pair loop ran on
// more than one goroutine.
func (d *Diversity) Splits() int64 { return d.splits }

// Clone returns an evaluator over the same functions and features with its
// own scratch and zero counters, for use on another goroutine.
func (d *Diversity) Clone() *Diversity {
	c := *d
	c.work, c.pairEvals, c.splits = nil, 0, 0
	return &c
}

// scratch returns the evaluator's scratch, made on first use.
func (d *Diversity) scratch() *pairWork {
	if d.work == nil {
		d.work = new(pairWork)
	}
	return d.work
}

// columnSums is Features' exact column part of the pair sum; 0 without.
func (d *Diversity) columnSums(matches []graph.NodeID) float64 {
	if d.Features == nil {
		return 0
	}
	return d.Features.columnSums(matches, &d.scratch().cols)
}

// shares returns the first nw worker slots, growing them as needed.
func (d *Diversity) shares(nw int) []pairShare {
	w := d.scratch()
	for len(w.shares) < nw {
		var s pairShare
		if d.Features != nil {
			s.scr = make([]levScratch, len(d.Features.text))
		}
		w.shares = append(w.shares, s)
	}
	return w.shares[:nw]
}

// caller opens a scoring call that stays on the calling goroutine: it
// counts the call's pairs and returns d(·,·) over slot 0's scratch.
func (d *Diversity) caller(pairs int64) DistanceFunc {
	d.pairEvals += pairs
	return d.distFn(d.shares(1)[0].scr)
}

// distFn returns d(·,·) for a loop: Distance, or the free-text columns'
// share of it over a worker's kernel scratch. Loops hold the first argument
// fixed and sweep the second, so the scratch keeps the fixed node's strings
// compiled.
func (d *Diversity) distFn(scr []levScratch) DistanceFunc {
	f := d.Features
	if f == nil {
		return d.Distance
	}
	return func(v, w graph.NodeID) float64 { return f.textDistance(scr, v, w) }
}

// A helper goroutine takes ≈ 60 µs to start, so a share must be many times
// that: a Features pair runs the edit-distance kernel, ≈ 100 ns.
const minShare = 4096

// workers is how many goroutines a loop over pairs earns: one per minimum
// share, at most GOMAXPROCS. A caller-supplied Distance — opaque cost,
// maybe impure, behind a lock-guarded PairCache — stays on the caller.
func (d *Diversity) workers(pairs int64) int {
	if d.Features == nil {
		return 1
	}
	return int(max(1, min(pairs/minShare, int64(runtime.GOMAXPROCS(0)))))
}

// split runs one scoring call's loop over pairs: share(d, &ss[k], m, k, nw)
// runs its k-th of nw shares, the last on the calling goroutine — so what a
// share spends reaching its start (the sampler's replay) overlaps the
// helpers' wake-up — and split returns the slots once all are done. Shares
// sum integer pair units, so how the loop was cut never changes the total.
func (d *Diversity) split(pairs int64, m []graph.NodeID,
	share func(d *Diversity, s *pairShare, m []graph.NodeID, k, nw int)) []pairShare {
	nw := d.workers(pairs)
	d.pairEvals += pairs
	ss := d.shares(nw)
	if nw > 1 {
		d.splits++
	}
	wg := &d.work.wg
	for k := 0; k < nw-1; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			share(d, &ss[k], m, k, nw)
		}()
	}
	share(d, &ss[nw-1], m, nw-1, nw)
	wg.Wait()
	return ss
}

// Eval computes δ for the given match set: EvalState's value, without the
// state.
func (d *Diversity) Eval(matches []graph.NodeID) float64 {
	v, _ := d.EvalState(matches)
	return v
}

// samplePairs estimates the pair loop's sum from MaxPairs deterministically
// chosen pairs (splitmix64 stream seeded by the set size) scaled to the
// full pair count. Determinism keeps benchmark runs reproducible.
func (d *Diversity) samplePairs(matches []graph.NodeID, numPairs int64) float64 {
	draws := min(int64(d.MaxPairs), maxUnitPairs) // the unit sum must not overflow
	var units int64
	for _, s := range d.split(draws, matches, (*Diversity).sampleShare) {
		units += s.units
	}
	return float64(units) / float64(pairUnitOne) / float64(draws) * float64(numPairs)
}

// sampleShare sums the k-th of nw runs of MaxPairs draws. Lemire rejections
// make the number of stream values a draw takes data-dependent, so a share
// replays the stream up to its first draw instead of jumping there.
func (d *Diversity) sampleShare(s *pairShare, m []graph.NodeID, k, nw int) {
	draws := min(int64(d.MaxPairs), maxUnitPairs)
	lo, hi := draws*int64(k)/int64(nw), draws*int64(k+1)/int64(nw)
	n := uint64(len(m))
	rng := splitmix64(n*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03)
	for t := int64(0); t < lo; t++ {
		rng.pair(n)
	}
	dist, units := d.distFn(s.scr), int64(0)
	for t := lo; t < hi; t++ {
		i, j := rng.pair(n)
		units += pairUnits(dist(m[i], m[j]))
	}
	s.units = units
}

// splitmix64 is the sampler's deterministic stream.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// pair draws two distinct indexes of [0, n), each exactly uniform.
func (s *splitmix64) pair(n uint64) (i, j uint64) {
	i, j = boundedUint(s, n), boundedUint(s, n-1)
	if j >= i {
		j++
	}
	return i, j
}

// boundedUint maps draws from s onto [0, n) without modulo bias using
// Lemire's multiply-shift reduction: the high 64 bits of draw·n are
// uniform once draws landing in the short first interval (low bits below
// 2⁶⁴ mod n) are rejected. The rejection loop consumes a deterministic
// number of extra draws for a given stream, preserving reproducibility.
func boundedUint(s *splitmix64, n uint64) uint64 {
	hi, lo := bits.Mul64(s.next(), n)
	if lo < n {
		threshold := -n % n
		for lo < threshold {
			hi, lo = bits.Mul64(s.next(), n)
		}
	}
	return hi
}

// MaxValue returns the upper bound of δ for this configuration, |V_{u_o}|,
// used to normalize indicators and size the ε-box grid.
func (d *Diversity) MaxValue() float64 { return float64(d.LabelPopulation) }
