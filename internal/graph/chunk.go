package graph

import (
	"slices"
	"sort"
	"unsafe"
)

// Every per-node table of a frozen graph — node labels, tombstones, the
// adjacency row headers, label positions, signatures, run tables and the
// typed column arrays — is one flat array until a mutation batch forks it,
// and a spine of fixed-size chunks after. A fork copies the chunk pointers
// (the first fork of a flat table points its full chunks into the array and
// copies only the tail) and clones a chunk on its first write, so a batch
// copies the chunks it writes and shares the rest with its base. A forked
// table keeps the array's prefix no clone has cut yet and reads it as flat;
// add-only batches, which clone only the tail chunks of the label and rank
// tables, leave those tables flat to their end. Entries past a table's
// length are zero, so a fork may lengthen a table over a shared tail chunk.

const (
	chunkShift = 5 // a chunk holds chunkLen entries (the rows of chunkLen nodes in a run table)
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

// spine is the copy-on-write state a Table and a Runs share. A chunk C
// holds w entries: a Table's is a *[chunkLen]T, a Runs' a slice of
// chunkLen rows.
type spine[T, C any] struct {
	flat  []T // the entries; once forked, the prefix the chunks still alias
	c     []C // the chunks, once forked
	owned owned
}

// owned marks the chunks a forked spine added or cloned, and so may write.
type owned []uint64

func (o owned) has(k int) bool { return o[k>>6]&(1<<uint(k&63)) != 0 }
func (o owned) add(k int)      { o[k>>6] |= 1 << uint(k&63) }

// fork returns a spine of k chunks of w entries sharing every chunk of s;
// as makes a chunk of w entries.
func (s *spine[T, C]) fork(k, w int, as func([]T) C) spine[T, C] {
	f := spine[T, C]{flat: s.flat[:len(s.flat)-len(s.flat)%w], c: make([]C, k), owned: make(owned, (k+63)>>6)}
	copy(f.c, s.c)
	for i := len(s.c); i < k; i++ {
		if tail := s.flat[min(i*w, len(s.flat)):]; len(tail) >= w {
			f.c[i] = as(tail[:w:w])
		} else {
			f.c[i] = as(append(make([]T, 0, w), tail...)[:w])
			f.owned.add(i)
		}
	}
	return f
}

// own returns chunk k for writing, cloning it first if the fork shares it;
// entries is the inverse of as.
func (s *spine[T, C]) own(k, w int, as func([]T) C, entries func(C) []T) C {
	if !s.owned.has(k) {
		s.c[k] = as(append(make([]T, 0, w), entries(s.c[k])...))
		s.flat = s.flat[:min(len(s.flat), k*w)]
		s.owned.add(k)
	}
	return s.c[k]
}

// fresh counts the entries s holds apart from base, w to a chunk: the
// chunks it added or cloned when forked from base, all of it when built
// beside base.
func (s *spine[T, C]) fresh(base *spine[T, C], w int) int {
	switch {
	case len(s.owned) > 0 && (len(base.owned) == 0 || &s.owned[0] != &base.owned[0]):
		return Bitset{words: s.owned}.Count() * w
	case len(s.flat) > 0 && (len(base.flat) == 0 || &s.flat[0] != &base.flat[0]):
		return len(s.flat)
	}
	return 0
}

func asArray[T any](s []T) *[chunkLen]T { return (*[chunkLen]T)(s) }
func ofArray[T any](c *[chunkLen]T) []T { return c[:] }
func asSlice(s []int32) []int32         { return s }

// Table is a read-only view of one per-node table: At(i) is entry i. The
// matcher captures its tables once (Graph.Adjacency, LabelPosTable,
// SignatureTables) and reads them through At.
type Table[T any] struct {
	spine[T, *[chunkLen]T]
	n int
}

// At returns entry i.
func (t *Table[T]) At(i int) T {
	if f := t.flat; uint(i) < uint(len(f)) {
		return f[i]
	}
	return t.c[i>>chunkShift][i&chunkMask]
}

// Len returns the number of entries.
func (t *Table[T]) Len() int { return t.n }

// TableOf returns a flat table over entries, which it does not copy.
func TableOf[T any](flat []T) Table[T] {
	return Table[T]{spine: spine[T, *[chunkLen]T]{flat: flat}, n: len(flat)}
}
func newTable[T any](n int) Table[T] { return TableOf(make([]T, n)) }

// fork returns a table of n ≥ t.n entries sharing every chunk of t.
func (t *Table[T]) fork(n int) Table[T] {
	return Table[T]{spine: t.spine.fork((n+chunkMask)>>chunkShift, chunkLen, asArray[T]), n: n}
}

// mut returns entry i for writing: in place in a flat table (one being
// built), after cloning its chunk if a forked table shares it.
func (t *Table[T]) mut(i int) *T {
	if t.c == nil {
		return &t.flat[i]
	}
	return &t.own(i>>chunkShift, chunkLen, asArray[T], ofArray[T])[i&chunkMask]
}

// update writes x to entry i unless the entry holds it already, so an
// unchanged entry leaves its chunk shared.
func update[T comparable](t *Table[T], i int, x T) {
	if t.At(i) != x {
		*t.mut(i) = x
	}
}

// push appends x to a flat table under construction.
func (t *Table[T]) push(x T) { t.flat, t.n = append(t.flat, x), t.n+1 }

// spans calls fn with the entries in order, a run at a time: the flat
// prefix, then each chunk past it, the last cut at the table's length.
func (t *Table[T]) spans(fn func([]T)) {
	fn(t.flat[:min(len(t.flat), t.n)])
	for k := len(t.flat) >> chunkShift; t.c != nil && k<<chunkShift < t.n; k++ {
		fn(t.c[k][:min(chunkLen, t.n-k<<chunkShift)])
	}
}

// entries returns the entries as one slice.
func (t *Table[T]) entries() (all []T) {
	t.spans(func(s []T) { all = append(all, s...) })
	return all
}

// freshBytes is the size of the chunks t holds apart from base.
func (t *Table[T]) freshBytes(base *Table[T]) int64 {
	var x T
	return int64(t.fresh(&base.spine, chunkLen)) * int64(unsafe.Sizeof(x))
}

// Runs is a read-only view of one direction's run table (see
// Graph.RunStarts). In the flat prefix node v's row is
// flat[v·stride:][:stride]; past it a chunk holds the rows of chunkLen
// nodes, so a row and its end sentinel never straddle two chunks.
type Runs struct {
	spine[int32, []int32]
	stride int
}

func flatRuns(flat []int32, stride int) Runs {
	return Runs{spine: spine[int32, []int32]{flat: flat}, stride: stride}
}

// Valid reports whether the graph carries the table; without it callers
// fall back to Graph.EdgeRun.
func (r *Runs) Valid() bool { return r.stride > 0 }

// Span returns the bounds of node v's run of label l in its sorted
// adjacency row.
func (r *Runs) Span(v NodeID, l LabelID) (lo, hi int32) {
	b := int(v)*r.stride + int(l)
	if f := r.flat; uint(b+1) < uint(len(f)) {
		return f[b], f[b+1]
	}
	c, b := r.c[v>>chunkShift], int(v&chunkMask)*r.stride+int(l)
	return c[b], c[b+1]
}

func (r *Runs) row(v int) []int32 {
	if (v+1)*r.stride <= len(r.flat) {
		return r.flat[v*r.stride:][:r.stride]
	}
	return r.c[v>>chunkShift][(v&chunkMask)*r.stride:][:r.stride]
}

// fork is Table.fork for a run table over n nodes.
func (r *Runs) fork(n int) Runs {
	if r.stride == 0 {
		return *r
	}
	return Runs{spine: r.spine.fork((n+chunkMask)>>chunkShift, chunkLen*r.stride, asSlice), stride: r.stride}
}

// mutRow returns node v's row for writing, cloning its chunk first if a
// forked r shares it.
func (r *Runs) mutRow(v int) []int32 {
	if r.c != nil {
		r.own(v>>chunkShift, chunkLen*r.stride, asSlice, asSlice)
	}
	return r.row(v)
}

func (r *Runs) freshBytes(base *Runs) int64 {
	return 4 * int64(r.fresh(&base.spine, chunkLen*r.stride))
}

// permRun is the length a re-merged permutation is cut to: its pieces stay
// between one entry and twice this.
const permRun = 8 * chunkLen

// permIndex is one permutation index (see SortedIndex): a flat array as
// Freeze or a decoder builds it, and once a batch re-merges it a list of
// pieces located by their end positions. A removal shifts every later
// position, so fixed-size chunks would all change; pieces of varying length
// let a merge rebuild only the pieces a removed, edited or added node falls
// in.
type permIndex struct {
	flat   []NodeID
	pieces [][]NodeID // each non-empty
	ends   []int32    // ends[j]: the entries in pieces[:j+1]
}

func (p *permIndex) len() int {
	if len(p.ends) == 0 {
		return len(p.flat)
	}
	return int(p.ends[len(p.ends)-1])
}

func (p *permIndex) start(j int) int {
	if j == 0 {
		return 0
	}
	return int(p.ends[j-1])
}

func (p *permIndex) at(i int) NodeID {
	if p.pieces == nil {
		return p.flat[i]
	}
	j := sort.Search(len(p.ends), func(j int) bool { return int(p.ends[j]) > i })
	return p.pieces[j][i-p.start(j)]
}

// search returns the first position whose node satisfies f, which must be
// false and then true along the permutation.
func (p *permIndex) search(f func(NodeID) bool) int {
	if p.pieces == nil {
		return sort.Search(len(p.flat), func(i int) bool { return f(p.flat[i]) })
	}
	j := sort.Search(len(p.pieces), func(j int) bool { s := p.pieces[j]; return f(s[len(s)-1]) })
	if j == len(p.pieces) {
		return p.len()
	}
	return p.start(j) + sort.Search(len(p.pieces[j]), func(i int) bool { return f(p.pieces[j][i]) })
}

// nodes returns the permutation as one slice, p.flat when it is flat.
func (p *permIndex) nodes() []NodeID {
	if p.pieces == nil {
		return p.flat
	}
	return slices.Concat(p.pieces...)
}

// merge returns p without the entries at positions gone (ascending,
// distinct) and with moved, sorted by less, each placed after the nodes
// that sort below it. The pieces nothing lands in are shared; the first
// merge of a flat p cuts it into pieces of permRun.
func (p *permIndex) merge(gone []int, moved []NodeID, less func(a, b NodeID) bool) *permIndex {
	pieces := p.pieces
	if pieces == nil {
		pieces = make([][]NodeID, 0, (len(p.flat)+permRun-1)/permRun)
		for i := 0; i < len(p.flat); i += permRun {
			j := min(i+permRun, len(p.flat))
			pieces = append(pieces, p.flat[i:j:j])
		}
	}
	np := &permIndex{pieces: make([][]NodeID, 0, len(pieces)+1), ends: make([]int32, 0, len(pieces)+1)}
	first := 0 // s's position in p
	for _, s := range pieces {
		end := first + len(s)
		if len(gone) > 0 && gone[0] < end {
			kept := make([]NodeID, 0, len(s))
			for i, v := range s {
				if len(gone) > 0 && gone[0] == first+i {
					gone = gone[1:]
				} else {
					kept = append(kept, v)
				}
			}
			s = kept
		}
		first = end
		n := 0 // the moved nodes that sort below the piece's last node go in it
		for len(s) > 0 && n < len(moved) && less(moved[n], s[len(s)-1]) {
			n++
		}
		if n > 0 {
			s, moved = insertSorted(s, moved[:n], less), moved[n:]
		}
		np.add(s)
	}
	if len(moved) > 0 { // they sort after every kept node
		var last []NodeID
		if k := len(np.pieces) - 1; k >= 0 {
			last, np.pieces, np.ends = np.pieces[k], np.pieces[:k], np.ends[:k]
		}
		np.add(slices.Concat(last, moved))
	}
	return np
}

// add appends piece s, cutting pieces of permRun off its front while it is
// longer than 2·permRun.
func (p *permIndex) add(s []NodeID) {
	for len(s) > 2*permRun {
		p.add(s[:permRun:permRun])
		s = s[permRun:]
	}
	if len(s) > 0 {
		p.pieces, p.ends = append(p.pieces, s), append(p.ends, int32(p.len()+len(s)))
	}
}

// insertSorted returns a new slice holding s and ins, both sorted by less.
func insertSorted(s, ins []NodeID, less func(a, b NodeID) bool) []NodeID {
	out := make([]NodeID, 0, len(s)+len(ins))
	for _, t := range ins {
		k := sort.Search(len(s), func(i int) bool { return less(t, s[i]) })
		out, s = append(append(out, s[:k]...), t), s[k:]
	}
	return append(out, s...)
}
