package graph

import (
	"sync"
	"sync/atomic"
)

// The backing-store seam: a frozen Graph's slices — adjacency, label
// buckets, permutation indexes, typed columns, presence bitmaps, derived
// tables — are plain Go slices either allocated on the heap (Freeze,
// ReadSnapshot) or aliasing a single
// byte buffer (OpenSnapshotMapped, where the buffer is the mmap'd file).
// snapBacking owns that buffer and ref-counts its users so the last Close
// can munmap without any reader left holding a view.
//
// Strings are the one representation that never aliases the buffer: a
// string handed out by the graph can escape into job results, caches and
// pareto archives that outlive the registry handle that produced it, so
// strTable copies bytes onto the heap at first materialization. Only
// numeric, bitmap, adjacency and permutation views — which are read
// exclusively under an acquired handle — point into the map.
type snapBacking struct {
	data   []byte
	mapped bool
	refs   atomic.Int64
	unmap  func([]byte) error
}

func (b *snapBacking) retain() { b.refs.Add(1) }

// release drops one reference; the last one unmaps. Returns the munmap
// error, which is nil for heap backings.
func (b *snapBacking) release() error {
	if n := b.refs.Add(-1); n == 0 && b.mapped && b.unmap != nil {
		data := b.data
		b.data = nil
		return b.unmap(data)
	} else if n < 0 {
		panic("graph: snapshot backing released more times than retained")
	}
	return nil
}

// Retain adds a reference to the graph's backing store. Every Retain must
// be paired with exactly one Close; the graph returned by
// OpenSnapshotMapped starts with one reference (the caller's). No-op for
// heap-backed graphs.
func (g *Graph) Retain() {
	if g.backing != nil {
		g.backing.retain()
	}
}

// Close releases one reference to the graph's backing store; when the
// last reference is released the underlying file mapping is unmapped and
// every view served by this graph becomes invalid. Heap-backed graphs
// (built, or decoded from a reader) have no backing store
// and Close is a no-op returning nil.
func (g *Graph) Close() error {
	if g.backing == nil {
		return nil
	}
	return g.backing.release()
}

// Mapped reports whether the graph's frozen sections are served from a
// memory-mapped snapshot rather than heap slices.
func (g *Graph) Mapped() bool { return g.backing != nil && g.backing.mapped }

// MappedBytes returns the size of the memory-mapped region backing the
// graph, or 0 for heap-backed graphs.
func (g *Graph) MappedBytes() int64 {
	if !g.Mapped() {
		return 0
	}
	return int64(len(g.backing.data))
}

// mappedRefs exposes the backing reference count to tests.
func (g *Graph) mappedRefs() int64 {
	if g.backing == nil {
		return 0
	}
	return g.backing.refs.Load()
}

// strTable is the snapshot v2 string table: offsets and blob alias the
// backing buffer until the first string is needed, at which point every
// string is copied onto the heap in one pass. Materialization is
// all-or-nothing — per-string laziness would cost a branch and an atomic
// on the column read path for little benefit, since the first string read
// almost always implies many more.
type strTable struct {
	once sync.Once
	offs []uint64 // count+1 cumulative byte offsets into blob
	blob []byte
	strs []string
}

func (t *strTable) count() int { return len(t.offs) - 1 }

func (t *strTable) materialize() {
	strs := make([]string, t.count())
	for i := range strs {
		strs[i] = string(t.blob[t.offs[i]:t.offs[i+1]])
	}
	t.strs = strs
	// Drop the aliases: after materialization the table must not keep the
	// mapped region reachable through stale views.
	t.offs, t.blob = nil, nil
}

// str returns the string for a 1-based column ref (0, the absent marker,
// reads as "" — callers check the presence bitmap first).
func (t *strTable) str(ref uint32) string {
	if ref == 0 {
		return ""
	}
	t.once.Do(t.materialize)
	return t.strs[ref-1]
}

// bytesAt returns the raw bytes of 0-based entry i without materializing
// the table; only valid before materialization drops the views (the v2
// loader's validation pass uses it to check index sort order).
func (t *strTable) bytesAt(i int) []byte {
	return t.blob[t.offs[i]:t.offs[i+1]]
}
