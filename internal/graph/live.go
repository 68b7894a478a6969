package graph

import (
	"fmt"
	"sync"
)

// Live wraps a frozen graph with a mutation head: Apply merges batches
// into successive frozen generations (see ApplyBatch), readers acquire a
// consistent generation and keep it for as long as they like, and Compact
// re-freezes the accumulated copy-on-write state into a canonical layout
// in one shot. Live serializes writers; any number of readers proceed
// concurrently against the generations they acquired.
type Live struct {
	mu  sync.Mutex
	cur *Graph
	// ops counts mutations applied since construction or the last
	// Compact; the server's compaction policy reads it.
	ops int
}

// NewLive wraps a frozen graph. Live takes over the caller's backing
// reference: Live.Close releases it, and every Apply hands the reference
// chain forward (readers that need the graph to outlive the Live must
// Acquire it).
func NewLive(g *Graph) *Live {
	if !g.Frozen() {
		panic("graph: NewLive requires a frozen graph; call Freeze first")
	}
	return &Live{cur: g}
}

// Graph returns the current generation without retaining it. The result
// is immutable and safe to read concurrently with Apply, but for mapped
// graphs it may be unmapped once the Live drops it — use Acquire when the
// read outlives the call frame.
func (l *Live) Graph() *Graph {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cur
}

// Acquire returns the current generation with one backing reference added
// (no-op for heap graphs); the caller must Close it. The retain happens
// under the same lock Apply swaps under, so a mapped base can never be
// unmapped between the read and the retain.
func (l *Live) Acquire() *Graph {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cur.Retain()
	return l.cur
}

// Version returns the current generation's version.
func (l *Live) Version() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cur.version
}

// OpsSinceCompact returns the number of mutations applied since the last
// Compact (or construction) — the input to compaction policies.
func (l *Live) OpsSinceCompact() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ops
}

// Apply validates and merges one mutation batch, making the merged graph
// the current generation. On success the previous generation's backing
// reference is released (readers that acquired it keep it alive); on
// validation error nothing changes.
func (l *Live) Apply(ops []Mutation) (*ApplyResult, error) {
	return l.ApplyCommit(ops, nil)
}

// ApplyCommit is Apply with a commit step between building the next
// generation and making it current: commit (when non-nil) runs under the
// writer lock once the batch has validated and merged — the place to make
// the batch durable. If it fails, the built generation is discarded, the
// current one stays and commit's error is returned as is.
func (l *Live) ApplyCommit(ops []Mutation, commit func() error) (*ApplyResult, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ng, res, err := ApplyBatch(l.cur, ops)
	if err != nil {
		return nil, err
	}
	if commit != nil {
		if err := commit(); err != nil {
			ng.Close()
			return nil, err
		}
	}
	old := l.cur
	l.cur = ng
	l.ops += len(ops)
	old.Close()
	return res, nil
}

// Compact re-freezes the current generation into a canonical heap layout:
// a full rebuild with identical dictionaries, NodeIDs, bucket and index
// orders — and therefore the identical version, since every cache
// coordinate is preserved — that drops the copy-on-write sharing chain
// (and, for mapped bases, the mapping reference) accumulated by Apply.
// Returns the compacted generation and the resurrected snapshot image
// described under Checkpoint; resurrected == compacted when the graph has
// no tombstones.
func (l *Live) Compact() (compacted, resurrected *Graph) {
	l.mu.Lock()
	defer l.mu.Unlock()
	old := l.cur
	res := old.resurrected()
	canon := res
	if ts := old.Tombstones(); len(ts) > 0 {
		batch := TombstoneBatch(ts)
		var err error
		canon, _, err = ApplyBatch(res, batch)
		if err != nil {
			// Cannot happen: every tombstoned slot is a live bare node of
			// the resurrected graph.
			panic(fmt.Sprintf("graph: compact re-tombstone failed: %v", err))
		}
	}
	// The rebuild reproduces every cache coordinate (dictionaries, bucket
	// ranks, permutation orders), so the compacted graph keeps the old
	// generation's identity: caches keyed by (lineage, version) stay valid.
	canon.version = old.version
	canon.lineage = old.lineage
	l.cur = canon
	l.ops = 0
	old.Close()
	return canon, res
}

// TombstoneBatch builds the RemoveNode batch that re-tombstones the given
// slots — the WAL's checkpoint batch (see Live.Compact and the wal.go
// file format notes).
func TombstoneBatch(ts []NodeID) []Mutation {
	batch := make([]Mutation, len(ts))
	for i, v := range ts {
		batch[i] = Mutation{Op: MutRemoveNode, Node: v}
	}
	return batch
}

// Close releases the Live's reference to the current generation. The
// Live must not be used afterwards.
func (l *Live) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cur.Close()
}

// resurrected rebuilds the graph from scratch through the builder +
// Freeze, with tombstoned slots resurrected as bare nodes (their retained
// label, no attributes, no edges) so every slot is live — the only form
// the snapshot codecs can represent. Dictionaries are pre-interned in the
// source's order, so LabelIDs, AttrIDs, bucket ranks and permutation
// index orders all coincide with the source: re-tombstoning the dead
// slots afterwards reproduces the source's logical state and cache
// coordinates exactly.
func (g *Graph) resurrected() *Graph {
	g.mustFrozen("resurrected")
	nb := New()
	for _, s := range g.labels {
		nb.Intern(s)
	}
	for _, s := range g.attrTable {
		nb.internAttr(s)
	}
	n := g.NumNodes()
	nb.Grow(n)
	for v := 0; v < n; v++ {
		id := nb.AddNode(g.Label(NodeID(v)), nil)
		if !g.Alive(NodeID(v)) {
			continue
		}
		for _, p := range g.AttrPairs(NodeID(v)) {
			nb.SetAttr(id, p.Name, p.Value)
		}
	}
	for v := 0; v < n; v++ {
		for _, e := range g.Out(NodeID(v)) {
			if err := nb.AddEdge(NodeID(v), e.To, g.labels[e.Label]); err != nil {
				panic(fmt.Sprintf("graph: resurrect edge %d->%d: %v", v, e.To, err))
			}
		}
	}
	nb.Freeze()
	return nb
}
