// Package measure implements the two FairSQG quality measures: the max-sum
// answer diversity δ(q, G) with pluggable relevance and pairwise-distance
// functions, and the group-coverage penalty f(q, P).
package measure

import (
	"sync"
	"unicode/utf8"
)

// levPattern is an ASCII string compiled for Myers/Hyyrö bit-vector
// Levenshtein: per byte value, a mask of the positions holding it. One
// compiled pattern scores against any number of texts in O(|text|·words)
// word operations, so the pair loops compile the fixed side of a row once.
// Patterns of up to 64 bytes fit one machine word; longer ones use the
// blocked form with a ±1 carry between words.
type levPattern struct {
	src  string
	peq1 [128]uint64 // single-word masks, valid when len(src) <= 64
	peqN []uint64    // blocked masks, peqN[c*words+w], when len(src) > 64
	// pv/mv are the blocked form's vertical delta vectors, one per word.
	pv, mv []uint64
}

// compile makes s (ASCII only) the current pattern; recompiling the string
// already held is free. The zero value holds the empty pattern.
func (p *levPattern) compile(s string) {
	if p.src == s {
		return
	}
	if len(p.src) <= 64 {
		for i := 0; i < len(p.src); i++ {
			p.peq1[p.src[i]&127] = 0
		}
	}
	p.src = s
	if len(s) <= 64 {
		for i := 0; i < len(s); i++ {
			p.peq1[s[i]&127] |= 1 << uint(i)
		}
		return
	}
	words := (len(s) + 63) / 64
	if need := 128 * words; cap(p.peqN) < need {
		p.peqN = make([]uint64, need)
		p.pv = make([]uint64, words)
		p.mv = make([]uint64, words)
	} else {
		p.peqN = p.peqN[:need]
		clear(p.peqN)
	}
	for i := 0; i < len(s); i++ {
		p.peqN[int(s[i]&127)*words+i/64] |= 1 << uint(i%64)
	}
}

// distance returns the edit distance between the compiled pattern and an
// ASCII text: Hyyrö's formulation of Myers' algorithm for the global
// distance (the horizontal delta entering row 0 is always +1).
func (p *levPattern) distance(text string) int {
	m := len(p.src)
	if m == 0 {
		return len(text)
	}
	if m > 64 {
		return p.distanceBlocked(text)
	}
	pv, mv := ^uint64(0), uint64(0)
	last := uint64(1) << uint(m-1)
	score := m
	for i := 0; i < len(text); i++ {
		eq := p.peq1[text[i]&127]
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&last != 0 {
			score++
		} else if mh&last != 0 {
			score--
		}
		ph = ph<<1 | 1
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
	}
	return score
}

// distanceBlocked is distance for patterns longer than one word: each text
// byte advances every 64-row block in turn, passing the horizontal delta
// at the block's last row (−1, 0 or +1) to the next.
func (p *levPattern) distanceBlocked(text string) int {
	m := len(p.src)
	words := (m + 63) / 64
	pvs, mvs := p.pv[:words], p.mv[:words]
	for w := range pvs {
		pvs[w], mvs[w] = ^uint64(0), 0
	}
	lastTop := uint64(1) << uint((m-1)%64)
	score := m
	for i := 0; i < len(text); i++ {
		peq := p.peqN[int(text[i]&127)*words:][:words]
		hin := 1
		for w := 0; w < words; w++ {
			top := uint64(1) << 63
			if w == words-1 {
				top = lastTop
			}
			pv, mv, eq := pvs[w], mvs[w], peq[w]
			xv := eq | mv
			if hin < 0 {
				eq |= 1
			}
			xh := (((eq & pv) + pv) ^ pv) | eq
			ph := mv | ^(xh | pv)
			mh := pv & xh
			hout := 0
			if ph&top != 0 {
				hout = 1
			} else if mh&top != 0 {
				hout = -1
			}
			ph <<= 1
			mh <<= 1
			if hin < 0 {
				mh |= 1
			} else if hin > 0 {
				ph |= 1
			}
			pvs[w] = mh | ^(xv | ph)
			mvs[w] = ph & xv
			hin = hout
		}
		score += hin
	}
	return score
}

// levScratch is the working memory of one edit-distance evaluation: a
// compiled pattern for the bit-vector kernel, and two DP rows plus rune
// buffers for the non-ASCII fallback. The pair loops own one per string
// column; the public functions draw from a pool.
type levScratch struct {
	pat       levPattern
	prev, cur []int
	ra, rb    []rune
}

var levPool = sync.Pool{New: func() any { return new(levScratch) }}

// rows returns the two scratch rows with capacity for n+1 cells.
func (s *levScratch) rows(n int) (prev, cur []int) {
	if cap(s.prev) < n+1 {
		s.prev = make([]int, n+1)
		s.cur = make([]int, n+1)
	}
	return s.prev[:n+1], s.cur[:n+1]
}

// strInfo is what the kernel needs to know about a string besides its
// bytes; feature columns precompute it per interned string.
type strInfo struct {
	runes int32
	ascii bool
}

func infoOf(s string) strInfo {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return strInfo{runes: int32(utf8.RuneCountInString(s))}
		}
	}
	return strInfo{runes: int32(len(s)), ascii: true}
}

// lev returns the edit distance between a and b, whose strInfo the caller
// supplies. Two ASCII strings run the bit-vector kernel with a as the
// pattern (kept compiled in s across calls); anything else decodes to
// runes and runs the two-row DP.
func (s *levScratch) lev(a, b string, ia, ib strInfo) int {
	if ia.runes == 0 {
		return int(ib.runes)
	}
	if ib.runes == 0 {
		return int(ia.runes)
	}
	if ia.ascii && ib.ascii {
		s.pat.compile(a)
		return s.pat.distance(b)
	}
	return s.levRunes(a, b)
}

// normLev is lev divided by the longer rune length, in [0,1]; a ≠ b (two
// empty strings have no length to divide by).
func (s *levScratch) normLev(a, b string, ia, ib strInfo) float64 {
	m := ia.runes
	if ib.runes > m {
		m = ib.runes
	}
	return float64(s.lev(a, b, ia, ib)) / float64(m)
}

// levRunes is the reference O(|a|·|b|) two-row dynamic program over
// decoded runes: the only path for non-ASCII input, and the oracle the
// bit-vector kernel is tested against.
func (s *levScratch) levRunes(a, b string) int {
	s.ra, s.rb = s.ra[:0], s.rb[:0]
	for _, r := range a {
		s.ra = append(s.ra, r)
	}
	for _, r := range b {
		s.rb = append(s.rb, r)
	}
	ra, rb := s.ra, s.rb
	prev, cur := s.rows(len(rb))
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		ca := ra[i-1]
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ca == rb[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// Levenshtein returns the edit distance between a and b in runes. Pure
// ASCII inputs run the bit-vector kernel over bytes (the shorter string is
// the pattern, so one word suffices whenever either side is ≤ 64 bytes);
// others decode to runes for the two-row DP. Scratch is pooled, so
// repeated calls do not allocate.
func Levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	if len(b) < len(a) {
		a, b = b, a
	}
	s := levPool.Get().(*levScratch)
	dist := s.lev(a, b, infoOf(a), infoOf(b))
	levPool.Put(s)
	return dist
}

// NormalizedLevenshtein returns Levenshtein(a,b) divided by the longer
// length, in [0,1]; two empty strings have distance 0.
func NormalizedLevenshtein(a, b string) float64 {
	if a == b {
		return 0
	}
	if len(b) < len(a) {
		a, b = b, a
	}
	s := levPool.Get().(*levScratch)
	d := s.normLev(a, b, infoOf(a), infoOf(b))
	levPool.Put(s)
	return d
}
