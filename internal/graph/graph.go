// Package graph implements the attributed directed graph substrate used by
// the FairSQG query-generation algorithms: nodes and edges carry labels,
// nodes carry typed attribute tuples, and the graph maintains the label,
// active-domain and sorted attribute indexes the matcher relies on.
// Storage is columnar once frozen: attribute names are interned
// into dense AttrIDs and Freeze transposes the per-node tuples into typed
// per-attribute columns (value array + presence bitmap) plus per-(label,
// attribute) sorted permutation indexes.
package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// NodeID identifies a node; IDs are dense and assigned in insertion order.
type NodeID int32

// InvalidNode is returned by lookups that find no node.
const InvalidNode NodeID = -1

// Edge is one directed, labeled edge as seen from one endpoint.
type Edge struct {
	To    NodeID // the neighbor (target for Out, source for In)
	Label LabelID
}

// LabelID is an interned node or edge label. Node labels and edge labels
// share one dictionary.
type LabelID int32

// InvalidLabel is returned when a label has never been interned.
const InvalidLabel LabelID = -1

// Graph is an attributed directed graph G = (V, E, L, T). Build it with
// AddNode/AddEdge, then call Freeze to construct the indexes; a frozen
// graph is immutable and safe for concurrent readers.
//
// Storage seam: every frozen per-node table is a Table (chunk.go: one array,
// or a chunk spine once a mutation batch forks it) and every other frozen
// field a plain slice (or a map of plain slices), so either can be served
// from heap arrays built by Freeze / ReadSnapshot, or — for snapshot files
// opened with OpenSnapshotMapped — from views directly over the
// memory-mapped file (see storage.go). The read API is identical either
// way; only Close semantics differ.
type Graph struct {
	labels    []string
	labelIDs  map[string]LabelID
	attrTable []string // AttrID -> name, intern order
	attrIDs   map[string]AttrID
	// nodeLabels is the per-node label table — the frozen truth about V.
	// nodeAttrs carries the per-node attribute tuples only while the graph
	// is under construction; Freeze transposes them into columns and drops
	// the whole array.
	nodeLabels Table[LabelID]
	nodeAttrs  [][]attrKV
	out        Table[[]Edge]
	in         Table[[]Edge]
	numEdges   int
	frozen     bool
	byLabel    map[LabelID][]NodeID
	cols       []column  // by AttrID; built at Freeze
	domains    [][]Value // by AttrID; sorted distinct values
	indexes    map[labelAttr]*permIndex
	attrNames  []string // sorted, for AttrNames
	mem        MemoryStats
	maxOutDeg  int
	maxInDeg   int

	// version is the graph's logical mutation version: Freeze and the
	// snapshot loader produce version 1, and every applyDelta merge (see
	// mutate.go) bumps it by one. Caches keyed by (version, query) never
	// serve a pre-mutation entry for a post-mutation graph.
	version uint64
	// lineage is a process-unique identity for the graph's mutation
	// lineage: Freeze, the snapshot decoders and every mutation merge draw
	// a fresh value (two batches merged onto one base are two states at one
	// version), and compaction preserves it (together with the version — see
	// Live.Compact). (lineage, version) therefore uniquely identifies one
	// logical graph state within the process, the key prefix shared caches
	// use to stay correct across graphs and mutations.
	lineage uint64
	// dead marks tombstoned node slots (see mutate.go): a set bit means the
	// NodeID was removed by a mutation. Dead slots keep their label (the
	// checkpoint resurrect path needs it) but carry no attributes or edges
	// and appear in no bucket or index, so the matcher never sees them.
	// NodeIDs are never reused. Empty on graphs that were never mutated.
	dead      Table[uint64]
	deadCount int

	// backing, when non-nil, owns the byte buffer (heap or mmap) the
	// frozen slices above alias; see storage.go. domFill/strTab implement
	// the lazily-materialized domain and string sections of snapshot v2.
	backing *snapBacking
	strTab  *strTable
	domOnce sync.Once
	domFill func()
	// rows holds each attribute's AttrRow, built on first use; a batch's
	// generation starts with forks of the rows its base served.
	rows []rowSlot

	// Derived tables, a function of buckets and adjacency alone. Freeze
	// computes them for every row (buildDerived), ApplyBatch forks its
	// base's and re-derives the rows the batch touched (patchDerived, same
	// per-row kernels), and a snapshot stores them (LPOS/SIGO/SIGI and the
	// run sections), so a decoded or mapped graph computes nothing.
	// labelPos packs each node's label (high 32 bits) with its
	// rank inside that label's bucket (low 32 bits), the backing coordinate
	// for the matcher's label-local candidate bitsets; sigOut/sigIn hold
	// per-node neighborhood label signatures (bit label&63 set when an
	// incident edge carries that label), consulted for O(1) structural
	// candidate pruning; outRuns/inRuns (not Valid on graphs where
	// nodes×labels exceeds maxRunTableEntries) give every (node, label)
	// adjacency run in O(1) instead of two binary searches.
	labelPos        Table[uint64]
	sigOut, sigIn   Table[uint64]
	outRuns, inRuns Runs
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{labelIDs: make(map[string]LabelID), attrIDs: make(map[string]AttrID)}
}

// Intern returns the LabelID for s, creating it if needed.
func (g *Graph) Intern(s string) LabelID {
	if id, ok := g.labelIDs[s]; ok {
		return id
	}
	id := LabelID(len(g.labels))
	g.labels = append(g.labels, s)
	g.labelIDs[s] = id
	return id
}

// internBytes is Intern or internAttr (add) for a name cut from a buffer: a
// name dict already holds is found without allocating, a new one is copied.
func internBytes[ID LabelID | AttrID](dict map[string]ID, b []byte, add func(string) ID) ID {
	if id, ok := dict[string(b)]; ok {
		return id
	}
	return add(string(b))
}

// LabelOf returns the string form of an interned label.
func (g *Graph) LabelOf(id LabelID) string {
	if id < 0 || int(id) >= len(g.labels) {
		return ""
	}
	return g.labels[id]
}

// LookupLabel returns the LabelID for s without interning, or InvalidLabel.
func (g *Graph) LookupLabel(s string) LabelID {
	if id, ok := g.labelIDs[s]; ok {
		return id
	}
	return InvalidLabel
}

// maxPreallocEntries caps how many entries a declared count (a TSV or
// JSON header, or any other untrusted hint) may pre-allocate through
// Grow. Graphs larger than the cap still load fine — append takes over —
// but a forged multi-billion count can never turn into a multi-GB
// up-front allocation.
const maxPreallocEntries = 1 << 20

// Grow pre-allocates capacity for about n more nodes, clamped to
// maxPreallocEntries; a hint, never a limit. No-op on frozen graphs and
// non-positive counts.
func (g *Graph) Grow(n int) {
	if g.frozen || n <= 0 {
		return
	}
	if n > maxPreallocEntries {
		n = maxPreallocEntries
	}
	if want := len(g.nodeLabels.flat) + n; want > cap(g.nodeLabels.flat) {
		labels := make([]LabelID, len(g.nodeLabels.flat), want)
		copy(labels, g.nodeLabels.flat)
		g.nodeLabels.flat = labels
		attrs := make([][]attrKV, len(g.nodeAttrs), want)
		copy(attrs, g.nodeAttrs)
		g.nodeAttrs = attrs
		out := make([][]Edge, len(g.out.flat), want)
		copy(out, g.out.flat)
		g.out.flat = out
		in := make([][]Edge, len(g.in.flat), want)
		copy(in, g.in.flat)
		g.in.flat = in
	}
}

// AddNode appends a node with the given label and attribute tuple and
// returns its ID. The attrs map is copied (keys interned in sorted order,
// so AttrID assignment is deterministic); the caller keeps ownership and
// may reuse or mutate it afterwards. AddNode panics on a frozen graph.
func (g *Graph) AddNode(label string, attrs map[string]Value) NodeID {
	g.mustMutable("AddNode")
	var kvs []attrKV
	if len(attrs) > 0 {
		names := make([]string, 0, len(attrs))
		for a := range attrs {
			names = append(names, a)
		}
		sort.Strings(names)
		kvs = make([]attrKV, 0, len(names))
		for _, a := range names {
			kvs = append(kvs, attrKV{id: g.internAttr(a), val: attrs[a]})
		}
	}
	return g.addNode(g.Intern(label), kvs)
}

// addNode, addEdge and setAttr are AddNode, AddEdge and SetAttr on interned
// IDs, for a reader that interns its own input.
func (g *Graph) addNode(l LabelID, kvs []attrKV) NodeID {
	g.nodeLabels.push(l)
	g.nodeAttrs = append(g.nodeAttrs, kvs)
	g.out.push(nil)
	g.in.push(nil)
	return NodeID(g.nodeLabels.n - 1)
}

// AddEdge inserts a directed labeled edge from → to.
func (g *Graph) AddEdge(from, to NodeID, label string) error {
	g.mustMutable("AddEdge")
	return g.addEdge(from, to, g.Intern(label))
}

func (g *Graph) addEdge(from, to NodeID, l LabelID) error {
	if !g.valid(from) || !g.valid(to) {
		return fmt.Errorf("graph: AddEdge(%d, %d): node out of range [0,%d)", from, to, g.nodeLabels.n)
	}
	out, in := g.out.mut(int(from)), g.in.mut(int(to))
	*out = append(*out, Edge{To: to, Label: l})
	*in = append(*in, Edge{To: from, Label: l})
	g.numEdges++
	return nil
}

func (g *Graph) valid(v NodeID) bool { return v >= 0 && int(v) < g.nodeLabels.n }

func (g *Graph) mustMutable(op string) {
	if g.frozen {
		panic("graph: " + op + " on frozen graph")
	}
}

// Freeze builds the label index, the attribute columns with their active
// domains, and the per-(label, attribute) sorted indexes, then marks the
// graph immutable. Freeze is idempotent.
func (g *Graph) Freeze() {
	if g.frozen {
		return
	}
	g.byLabel = make(map[LabelID][]NodeID)
	for i, l := range g.nodeLabels.flat {
		g.byLabel[l] = append(g.byLabel[l], NodeID(i))
	}
	g.buildColumns()
	g.buildIndexes()
	for i := range g.out.flat {
		sortEdges(g.out.flat[i])
		sortEdges(g.in.flat[i])
	}
	g.mem, g.maxOutDeg, g.maxInDeg = g.measured()
	g.buildDerived()
	g.version = 1
	g.lineage = nextLineage()
	g.frozen = true
}

// measured sums the storage footprint and the degree maxima of a finished
// layout: Freeze's values, the oracle for ApplyBatch's deltas
// (batchEdits.measure); the snapshot decoder restores the recorded values.
func (g *Graph) measured() (mem MemoryStats, maxOut, maxIn int) {
	for a := range g.cols {
		mem.ColumnBytes += g.cols[a].bytes()
	}
	return g.indexStats(mem), maxRowLen(&g.out), maxRowLen(&g.in)
}

// indexStats fills in mem's index footprint.
func (g *Graph) indexStats(mem MemoryStats) MemoryStats {
	mem.Indexes = len(g.indexes)
	for _, perm := range g.indexes {
		mem.IndexBytes += int64(perm.len()) * 4
	}
	return mem
}

// maxRowLen returns the length of the longest adjacency row. It walks the
// table a chunk at a time: an At per node would take the spine path for
// most rows of a forked table.
func maxRowLen(rows *Table[[]Edge]) int {
	m := 0
	rows.spans(func(rs [][]Edge) {
		for _, r := range rs {
			if len(r) > m {
				m = len(r)
			}
		}
	})
	return m
}

// lineageCounter issues process-unique lineage identities; see the
// lineage field.
var lineageCounter atomic.Uint64

func nextLineage() uint64 { return lineageCounter.Add(1) }

// Version returns the graph's logical mutation version (1 for a freshly
// frozen or snapshot-loaded graph; +1 per applied mutation batch). Caches
// that outlive one graph generation must key their entries by it.
func (g *Graph) Version() uint64 {
	g.mustFrozen("Version")
	return g.version
}

// Lineage returns the graph's process-unique lineage identity: fresh per
// Freeze, snapshot load and mutation merge, preserved by compaction. The (Lineage, Version) pair uniquely identifies one logical
// graph state within the process — shared caches key entries by it.
func (g *Graph) Lineage() uint64 {
	g.mustFrozen("Lineage")
	return g.lineage
}

// GenKey renders the (lineage, version) pair as a compact string prefix
// for cache keys; see Lineage.
func (g *Graph) GenKey() string {
	g.mustFrozen("GenKey")
	return strconv.FormatUint(g.lineage, 36) + ":" + strconv.FormatUint(g.version, 36)
}

// Alive reports whether v is a live node: in range and not tombstoned by a
// RemoveNode mutation. On never-mutated graphs every in-range node is live.
func (g *Graph) Alive(v NodeID) bool {
	if !g.valid(v) {
		return false
	}
	return g.dead.n == 0 || !bitGet(&g.dead, int(v))
}

// NumLive returns the number of live nodes: NumNodes minus tombstones.
func (g *Graph) NumLive() int { return g.nodeLabels.n - g.deadCount }

// HasTombstones reports whether any node slot was removed by a mutation.
// Tombstoned graphs cannot be snapshotted directly (the snapshot codecs
// represent every slot as live); see Live.Checkpoint for the resurrect
// protocol that persists them.
func (g *Graph) HasTombstones() bool { return g.deadCount > 0 }

// DictLabels returns the label dictionary in intern order (index i holds
// the string of LabelID i). The slice is shared; callers must not mutate
// it. The differential suites use it to align dictionaries between a
// mutated graph and its rebuild-from-scratch oracle, so Bloom-signature
// bit assignments (LabelSigBit is LabelID-modulo-64) coincide.
func (g *Graph) DictLabels() []string { return g.labels }

// DictAttrs returns the attribute-name dictionary in intern order (index
// i holds the name of AttrID i). Shared; callers must not mutate it.
func (g *Graph) DictAttrs() []string { return g.attrTable }

// The derived tables have one definition per row — rankBucket for a
// label's positions, deriveRow for a node's signatures and run boundaries —
// and two drivers: buildDerived over every row (Freeze, and an ApplyBatch
// whose run-table stride moved) and patchDerived over the rows one batch
// touched (mutate.go). A snapshot stores the tables, so decoding and mapped
// open run neither.

// buildDerived is the all-rows driver: it allocates the tables for the
// finished buckets and adjacency and derives every row.
func (g *Graph) buildDerived() {
	n := g.nodeLabels.n
	g.labelPos, g.sigOut, g.sigIn = newTable[uint64](n), newTable[uint64](n), newTable[uint64](n)
	for l := range g.byLabel {
		g.rankBucket(l)
	}
	if g.deadCount > 0 {
		for v := 0; v < n; v++ {
			if bitGet(&g.dead, v) {
				*g.labelPos.mut(v) = deadLabelPos
			}
		}
	}
	s := runTableStride(n, len(g.labels))
	g.outRuns, g.inRuns = flatRuns(make([]int32, n*s), s), flatRuns(make([]int32, n*s), s)
	for v := 0; v < n; v++ {
		g.deriveRow(v, true)
		g.deriveRow(v, false)
	}
}

// deadLabelPos poisons a tombstoned slot's packed entry: it belongs to no
// bucket, and a stray probe must never alias (label 0, rank 0).
var deadLabelPos = PackLabelPos(InvalidLabel, -1)

// rankBucket writes the packed label and bucket rank of every node of l.
func (g *Graph) rankBucket(l LabelID) {
	for i, v := range g.byLabel[l] {
		update(&g.labelPos, int(v), PackLabelPos(l, int32(i)))
	}
}

// deriveRow computes node v's signature and, where the graph carries run
// tables, its run boundaries from its sorted out- (or in-) adjacency row.
func (g *Graph) deriveRow(v int, outgoing bool) {
	rows, sig, runs := &g.out, &g.sigOut, &g.outRuns
	if !outgoing {
		rows, sig, runs = &g.in, &g.sigIn, &g.inRuns
	}
	update(sig, v, rowSignature(rows.At(v)))
	if runs.Valid() {
		fillRunStarts(runs.mutRow(v), rows.At(v))
	}
}

func rowSignature(es []Edge) (sig uint64) {
	for _, e := range es {
		sig |= LabelSigBit(e.Label)
	}
	return sig
}

// maxRunTableEntries caps the dense (node × label) run-boundary tables at
// 32 MiB apiece; graphs beyond the cap keep the binary-search EdgeRun path.
const maxRunTableEntries = 1 << 23

// runTableStride is the row width of the run tables of a graph with n node
// slots and the given label dictionary — one column per label plus the
// terminating boundary — or 0 when it carries none (empty, or past
// maxRunTableEntries).
func runTableStride(n, labels int) int {
	if n == 0 || n*(labels+1) > maxRunTableEntries {
		return 0
	}
	return labels + 1
}

// fillRunStarts writes one node's row of a run table: the run of label l
// inside the sorted adjacency es is es[starts[l]:starts[l+1]].
func fillRunStarts(starts []int32, es []Edge) {
	pos := 0
	for l := range starts[:len(starts)-1] {
		starts[l] = int32(pos)
		for pos < len(es) && int(es[pos].Label) == l {
			pos++
		}
	}
	starts[len(starts)-1] = int32(len(es))
}

// LabelSigBit returns the signature bit an edge label hashes to. The
// signature is a 64-bit Bloom filter with one hash: a clear bit proves the
// label absent, a set bit is inconclusive (labels collide modulo 64).
func LabelSigBit(l LabelID) uint64 { return 1 << (uint(l) & 63) }

// OutSignature returns node v's out-edge label signature: for every
// out-edge label l of v, the LabelSigBit(l) bit is set. Matcher hot path:
// valid only on frozen graphs.
func (g *Graph) OutSignature(v NodeID) uint64 { return g.sigOut.At(int(v)) }

// InSignature is OutSignature over v's in-edges.
func (g *Graph) InSignature(v NodeID) uint64 { return g.sigIn.At(int(v)) }

// PackLabelPos packs a node's label (high 32 bits) with its label-bucket
// rank (low 32 bits) — the layout PackedLabelPos reads back.
func PackLabelPos(l LabelID, pos int32) uint64 {
	return uint64(uint32(l))<<32 | uint64(uint32(pos))
}

// PackedLabelPos returns PackLabelPos(label of v, LabelPos(v)) in a single
// load — the matcher's membership probe resolves label equality and bitset
// position from it without touching the node records. Matcher hot path:
// valid only on frozen graphs.
func (g *Graph) PackedLabelPos(v NodeID) uint64 { return g.labelPos.At(int(v)) }

// LabelPos returns v's rank within its label bucket: NodesByLabel of v's
// label lists v at exactly this index. Together with NodesByLabelID it
// defines the label-local coordinate space the matcher's candidate bitsets
// are indexed by.
func (g *Graph) LabelPos(v NodeID) int32 {
	g.mustFrozen("LabelPos")
	return int32(uint32(g.labelPos.At(int(v))))
}

// NodesByLabelID is NodesByLabel for an already-interned label. The slice
// is shared; callers must not mutate it.
func (g *Graph) NodesByLabelID(id LabelID) []NodeID {
	g.mustFrozen("NodesByLabelID")
	return g.byLabel[id]
}

// EdgeRun returns the contiguous run of v's out-edges (or in-edges when
// outgoing is false) carrying the given label. Frozen adjacency is sorted
// by (label, endpoint), so the run is located with two binary searches and
// its endpoints are in ascending NodeID order. The slice is shared; callers
// must not mutate it.
// Matcher hot path: valid only on frozen graphs.
func (g *Graph) EdgeRun(v NodeID, label LabelID, outgoing bool) []Edge {
	if outgoing {
		return edgeRun(g.out.At(int(v)), &g.outRuns, v, label)
	}
	return edgeRun(g.in.At(int(v)), &g.inRuns, v, label)
}

// Adjacency exposes the frozen adjacency lists (out when outgoing, in
// otherwise), indexed by NodeID and sorted by (label, endpoint). Shared,
// read-only: the matcher captures them once so its inner loops index the
// table instead of calling a per-edge accessor.
func (g *Graph) Adjacency(outgoing bool) Table[[]Edge] {
	g.mustFrozen("Adjacency")
	if outgoing {
		return g.out
	}
	return g.in
}

// RunStarts exposes the run-boundary table for one direction: Span(v, l)
// bounds run (v, l) in the node's adjacency. It is not Valid on graphs past
// maxRunTableEntries — callers must fall back to EdgeRun. Shared,
// read-only.
func (g *Graph) RunStarts(outgoing bool) Runs {
	g.mustFrozen("RunStarts")
	if outgoing {
		return g.outRuns
	}
	return g.inRuns
}

// LabelPosTable exposes the packed label+rank table (see PackedLabelPos),
// indexed by NodeID. Shared, read-only.
func (g *Graph) LabelPosTable() Table[uint64] {
	g.mustFrozen("LabelPosTable")
	return g.labelPos
}

// SignatureTables exposes the out- and in-edge label signature tables (see
// OutSignature), indexed by NodeID. Shared, read-only.
func (g *Graph) SignatureTables() (sigOut, sigIn Table[uint64]) {
	g.mustFrozen("SignatureTables")
	return g.sigOut, g.sigIn
}

func edgeRun(es []Edge, runs *Runs, v NodeID, label LabelID) []Edge {
	if !runs.Valid() {
		return edgeRunSearch(es, label)
	}
	if uint32(label) >= uint32(runs.stride-1) {
		return nil
	}
	lo, hi := runs.Span(v, label)
	return es[lo:hi]
}

// edgeRunSearch is the binary-search fallback for graphs too large for the
// dense run tables.
func edgeRunSearch(es []Edge, label LabelID) []Edge {
	lo := sort.Search(len(es), func(i int) bool { return es[i].Label >= label })
	hi := lo + sort.Search(len(es)-lo, func(i int) bool { return es[lo+i].Label > label })
	return es[lo:hi]
}

// RunLen is len(EdgeRun(v, label, outgoing)) without materializing the
// slice — the matcher's ordering heuristic reads run lengths far more
// often than run contents.
func (g *Graph) RunLen(v NodeID, label LabelID, outgoing bool) int {
	runs := &g.outRuns
	if !outgoing {
		runs = &g.inRuns
	}
	if !runs.Valid() || uint32(label) >= uint32(runs.stride-1) {
		return len(g.EdgeRun(v, label, outgoing))
	}
	lo, hi := runs.Span(v, label)
	return int(hi - lo)
}

// LabelDegree counts v's out- (or in-) edges carrying the given label;
// parallel edges each count once.
func (g *Graph) LabelDegree(v NodeID, label LabelID, outgoing bool) int {
	return len(g.EdgeRun(v, label, outgoing))
}

func sortEdges(es []Edge) {
	slices.SortFunc(es, func(x, y Edge) int { return cmp.Or(cmp.Compare(x.Label, y.Label), cmp.Compare(x.To, y.To)) })
}

// Frozen reports whether Freeze has been called.
func (g *Graph) Frozen() bool { return g.frozen }

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return g.nodeLabels.n }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return g.numEdges }

// Label returns the node's label string.
func (g *Graph) Label(v NodeID) string { return g.labels[g.nodeLabels.At(int(v))] }

// LabelID returns the node's interned label.
func (g *Graph) NodeLabelID(v NodeID) LabelID { return g.nodeLabels.At(int(v)) }

// Attr returns the node's value for attribute a (Null when absent). Hot
// paths should resolve the name once via AttrIDOf and use AttrValue.
func (g *Graph) Attr(v NodeID, a string) Value {
	return g.AttrValue(v, g.AttrIDOf(a))
}

// AttrPair is one (name, value) entry of a node's attribute tuple.
type AttrPair struct {
	Name  string
	Value Value
}

// AttrPairs returns the node's attribute tuple sorted by name. The slice
// is freshly assembled (from columns once frozen); callers own it.
func (g *Graph) AttrPairs(v NodeID) []AttrPair {
	if g.frozen {
		var out []AttrPair
		for _, name := range g.attrNames {
			a := g.attrIDs[name]
			if g.cols[a].has(v) {
				out = append(out, AttrPair{Name: name, Value: g.cols[a].value(v)})
			}
		}
		return out
	}
	kvs := g.nodeAttrs[v]
	out := make([]AttrPair, 0, len(kvs))
	for _, kv := range kvs {
		out = append(out, AttrPair{Name: g.attrTable[kv.id], Value: kv.val})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Attrs returns a copy of the node's attribute tuple as a map. Mutating
// the result never affects the graph: once frozen the tuple is assembled
// from the immutable columns.
func (g *Graph) Attrs(v NodeID) map[string]Value {
	pairs := g.AttrPairs(v)
	out := make(map[string]Value, len(pairs))
	for _, p := range pairs {
		out[p.Name] = p.Value
	}
	return out
}

// SetAttr sets or overwrites one attribute of a node; only valid before
// Freeze (columns and active domains are built at freeze time).
func (g *Graph) SetAttr(v NodeID, a string, val Value) {
	g.mustMutable("SetAttr")
	g.setAttr(v, g.internAttr(a), val)
}

func (g *Graph) setAttr(v NodeID, id AttrID, val Value) {
	for i := range g.nodeAttrs[v] {
		if g.nodeAttrs[v][i].id == id {
			g.nodeAttrs[v][i].val = val
			return
		}
	}
	g.nodeAttrs[v] = append(g.nodeAttrs[v], attrKV{id: id, val: val})
}

// Out returns the out-edges of v sorted by (label, target).
func (g *Graph) Out(v NodeID) []Edge { return g.out.At(int(v)) }

// In returns the in-edges of v sorted by (label, source).
func (g *Graph) In(v NodeID) []Edge { return g.in.At(int(v)) }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v NodeID) int { return len(g.out.At(int(v))) }

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v NodeID) int { return len(g.in.At(int(v))) }

// HasEdge reports whether an edge from → to with the given label exists.
func (g *Graph) HasEdge(from, to NodeID, label LabelID) bool {
	es := g.out.At(int(from))
	// Edges are sorted by (label, target) once frozen; binary search then.
	if g.frozen {
		i := sort.Search(len(es), func(i int) bool {
			if es[i].Label != label {
				return es[i].Label > label
			}
			return es[i].To >= to
		})
		return i < len(es) && es[i].Label == label && es[i].To == to
	}
	for _, e := range es {
		if e.Label == label && e.To == to {
			return true
		}
	}
	return false
}

// NodesByLabel returns the set V(u) = {v | L(v) = label}. The slice is
// shared; callers must not mutate it. Requires a frozen graph.
func (g *Graph) NodesByLabel(label string) []NodeID {
	g.mustFrozen("NodesByLabel")
	id, ok := g.labelIDs[label]
	if !ok {
		return nil
	}
	return g.byLabel[id]
}

// CountLabel returns |V(label)| on a frozen graph.
func (g *Graph) CountLabel(label string) int { return len(g.NodesByLabel(label)) }

// domainList returns the per-attribute active domains, materializing them
// on first use for graphs loaded from a v2 snapshot (the DOM2 section is
// decoded lazily; see storage.go).
func (g *Graph) domainList() [][]Value {
	if g.domFill != nil {
		g.domOnce.Do(g.domFill)
	}
	return g.domains
}

// ActiveDomain returns adom(a): the sorted distinct values attribute a takes
// over V. The slice is shared; callers must not mutate it.
func (g *Graph) ActiveDomain(a string) []Value {
	g.mustFrozen("ActiveDomain")
	id, ok := g.attrIDs[a]
	if !ok {
		return nil
	}
	return g.domainList()[id]
}

// ActiveDomainByID is ActiveDomain for an already-interned attribute.
func (g *Graph) ActiveDomainByID(a AttrID) []Value {
	g.mustFrozen("ActiveDomainByID")
	doms := g.domainList()
	if a < 0 || int(a) >= len(doms) {
		return nil
	}
	return doms[a]
}

// AttrNames returns the sorted names of all node attributes present in G.
func (g *Graph) AttrNames() []string {
	g.mustFrozen("AttrNames")
	return g.attrNames
}

// MaxActiveDomain returns |adom_m|, the size of the largest active domain.
func (g *Graph) MaxActiveDomain() int {
	g.mustFrozen("MaxActiveDomain")
	m := 0
	for _, d := range g.domainList() {
		if len(d) > m {
			m = len(d)
		}
	}
	return m
}

// NodeLabels returns the distinct node labels present in G.
func (g *Graph) NodeLabels() []string {
	g.mustFrozen("NodeLabels")
	out := make([]string, 0, len(g.byLabel))
	for id := range g.byLabel {
		out = append(out, g.labels[id])
	}
	sort.Strings(out)
	return out
}

func (g *Graph) mustFrozen(op string) {
	if !g.frozen {
		panic("graph: " + op + " requires a frozen graph; call Freeze first")
	}
}
