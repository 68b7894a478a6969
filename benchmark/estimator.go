package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples a reported percentile must leave
// beyond it: with fewer, the "tail" is one or two ops and any of them
// landing on a neighbour's burst moves the number.
const minBeyond = 10

// bestOf returns, per op, the minimum latency over the passes that
// produced a sample for it. passes[p][i] is op i's latency in pass p; a
// non-positive entry means the op failed in that pass and has no sample.
// An op with no sample in any pass gets 0.
//
// The minimum is the estimator because the work per op is fixed: whatever
// a pass adds on top of the op's own cost (a neighbour's burst, a CPU
// clocked down, a GC left over from the previous op) only ever makes it
// slower, so the fastest of R repeats is the closest the host lets us get
// to the program's cost.
func bestOf(passes [][]time.Duration) []time.Duration {
	if len(passes) == 0 {
		return nil
	}
	best := make([]time.Duration, len(passes[0]))
	for _, pass := range passes {
		for i, d := range pass {
			if d > 0 && (best[i] == 0 || d < best[i]) {
				best[i] = d
			}
		}
	}
	return best
}

// percentile returns the p-quantile (0 < p <= 1) of the positive samples
// by nearest rank, and whether at least minBeyond samples lie beyond it.
// Callers report the value either way (the metric names are fixed) but
// say so when the tail is under-sampled.
func percentile(samples []time.Duration, p float64) (time.Duration, bool) {
	s := make([]time.Duration, 0, len(samples))
	for _, d := range samples {
		if d > 0 {
			s = append(s, d)
		}
	}
	if len(s) == 0 {
		return 0, false
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(p*float64(len(s)))) - 1
	idx = max(0, min(idx, len(s)-1))
	return s[idx], len(s)-1-idx >= minBeyond
}

// median returns the 0.5-quantile of xs by nearest rank (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// medianDuration is median over durations, ignoring non-positive entries.
func medianDuration(ds []time.Duration) time.Duration {
	d, _ := percentile(ds, 0.5)
	return d
}

// relSpread is (max − min) / median: the whole range, not a quartile
// distance, because the A/A check runs too few repeats for quartiles.
func relSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (hi - lo) / m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
