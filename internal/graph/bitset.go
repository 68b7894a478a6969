package graph

import "math/bits"

// Bitset is a dense fixed-capacity bitset. The matcher uses bitsets over
// label-local node positions (see Graph.LabelPos) as candidate sets:
// membership tests and deletions are O(1) word operations instead of map
// probes, and the backing array is a fraction of a map's footprint. The
// zero value is an empty bitset of capacity 0; allocate with NewBitset.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns an empty bitset holding positions [0, n).
func NewBitset(n int) Bitset {
	if n < 0 {
		n = 0
	}
	return Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// BitsetOver returns an empty bitset holding positions [0, n) in caller-owned
// memory: the first (n+63)/64 words of words' capacity, which are zeroed.
// The matcher builds its per-plan candidate bitsets over reused buffers
// with it.
func BitsetOver(words []uint64, n int) Bitset {
	words = words[:(n+63)/64]
	clear(words)
	return Bitset{words: words, n: n}
}

// Len returns the bitset's capacity n.
func (b Bitset) Len() int { return b.n }

// Set marks position i. Panics when i is out of [0, n).
func (b Bitset) Set(i int) {
	if i < 0 || i >= b.n {
		panic("graph: Bitset.Set out of range")
	}
	b.words[i>>6] |= 1 << uint(i&63)
}

// Clear unmarks position i. Panics when i is out of [0, n).
func (b Bitset) Clear(i int) {
	if i < 0 || i >= b.n {
		panic("graph: Bitset.Clear out of range")
	}
	b.words[i>>6] &^= 1 << uint(i&63)
}

// Get reports whether position i is marked; out-of-range positions read
// false so callers can probe with foreign indexes safely.
func (b Bitset) Get(i int) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.words[i>>6]&(1<<uint(i&63)) != 0
}

// Count returns the number of marked positions.
func (b Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// IntersectWith keeps only positions marked in both b and o. The two
// bitsets must have the same capacity.
func (b Bitset) IntersectWith(o Bitset) {
	if b.n != o.n {
		panic("graph: Bitset.IntersectWith capacity mismatch")
	}
	for i := range b.words {
		b.words[i] &= o.words[i]
	}
}

// Words exposes the backing word array (aliased, not copied): word i>>6
// bit i&63 is position i. The matcher's propagation loop intersects
// candidate sets against scratch masks word-at-a-time through it.
func (b Bitset) Words() []uint64 { return b.words }

// ForEach calls fn for every marked position in ascending order.
func (b Bitset) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		for w != 0 {
			fn(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}
