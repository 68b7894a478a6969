package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// AttrID is an interned attribute name. IDs are dense and assigned in
// first-use order; the dictionary is per graph.
type AttrID int32

// InvalidAttr is returned when an attribute name has never been interned.
const InvalidAttr AttrID = -1

// attrKV is the builder-time attribute record: nodes under construction
// carry a small slice of these, which Freeze transposes into columns.
type attrKV struct {
	id  AttrID
	val Value
}

// column is one attribute's values over all nodes in columnar form: a
// presence bitmap plus a typed dense array. When every present value shares
// one kind the column stores raw floats, strings or a bool bitmap; mixed
// attributes fall back to a []Value array. Columns are built at Freeze and
// immutable afterwards.
type column struct {
	kind    Kind // uniform kind of present values; KindNull when mixed
	count   int  // number of nodes carrying the attribute
	present Table[uint64]
	nums    Table[float64] // kind == KindNumber
	strs    Table[string]  // kind == KindString
	bools   Table[uint64]  // kind == KindBool: value bitmap
	vals    []Value        // mixed kinds

	// refs/tab replace strs for string columns served from a mapped
	// snapshot: refs[v] is a 1-based reference into the graph's lazily
	// materialized string table (0 = absent). See storage.go.
	refs []uint32
	tab  *strTable
}

func bitGet(bm *Table[uint64], i int) bool { return bm.At(i>>6)&(1<<uint(i&63)) != 0 }
func bitSet(bm *Table[uint64], i int)      { *bm.mut(i >> 6) |= 1 << uint(i&63) }
func bitClear(bm *Table[uint64], i int)    { *bm.mut(i >> 6) &^= 1 << uint(i&63) }

// has reports whether node v carries the attribute.
func (c *column) has(v NodeID) bool { return bitGet(&c.present, int(v)) }

// value reads node v's value from the column (Null when absent).
func (c *column) value(v NodeID) Value {
	if !bitGet(&c.present, int(v)) {
		return Null
	}
	switch {
	case c.vals != nil:
		return c.vals[v]
	case c.nums.n > 0:
		return Num(c.nums.At(int(v)))
	case c.strs.n > 0:
		return Str(c.strs.At(int(v)))
	case c.refs != nil:
		return Str(c.tab.str(c.refs[v]))
	default:
		return Bool(bitGet(&c.bools, int(v)))
	}
}

// bytes estimates the column's footprint as a heap build lays it out: a
// snapshot column's refs count as the strings they name, so every backing
// of one graph measures what its snapshot records.
func (c *column) bytes() int64 { return c.fixedBytes() + c.textBytes() }

func (c *column) fixedBytes() int64 {
	return int64(c.present.n+c.bools.n+c.nums.n)*8 + int64(c.strs.n+len(c.refs))*16 + int64(len(c.vals))*32
}

func (c *column) textBytes() (b int64) {
	c.strs.spans(func(ss []string) {
		for _, s := range ss {
			b += int64(len(s))
		}
	})
	for _, r := range c.refs {
		b += int64(len(c.tab.str(r)))
	}
	return b
}

// AppendMatching appends to dst the nodes of base whose attribute a
// satisfies "value op bound" — node for node exactly op.Apply(AttrValue(v,
// a), bound), but specialized for uniform numeric columns, where the
// three-way comparison reduces to two float compares per node instead of a
// boxed Value round trip (the matcher's literal scan path). Absent values
// read Null, which Compare orders before every number; NaN values order
// before every non-NaN number.
func (g *Graph) AppendMatching(dst, base []NodeID, a AttrID, op Op, bound Value) []NodeID {
	var minC, maxC int
	switch op {
	case OpLT:
		minC, maxC = -1, -1
	case OpLE:
		minC, maxC = -1, 0
	case OpEQ:
		minC, maxC = 0, 0
	case OpGE:
		minC, maxC = 0, 1
	case OpGT:
		minC, maxC = 1, 1
	default:
		return dst // OpInvalid matches nothing, as in Op.Apply
	}
	if g.frozen && a >= 0 && int(a) < len(g.cols) {
		if c := &g.cols[a]; c.nums.n > 0 && bound.kind == KindNumber && !math.IsNaN(bound.num) {
			b := bound.num
			for _, v := range base {
				cmp := -1 // Null and NaN both sort below the bound
				if bitGet(&c.present, int(v)) {
					switch x := c.nums.At(int(v)); {
					case x < b || math.IsNaN(x):
					case x > b:
						cmp = 1
					default:
						cmp = 0
					}
				}
				if cmp >= minC && cmp <= maxC {
					dst = append(dst, v)
				}
			}
			return dst
		}
	}
	for _, v := range base {
		if op.Apply(g.AttrValue(v, a), bound) {
			dst = append(dst, v)
		}
	}
	return dst
}

// NoValue is an AttrRow entry for a node that lacks the attribute.
const NoValue int32 = -1

// AttrRow is one attribute's values over a frozen generation's nodes as
// positions in its active domain: IDs.At(v) indexes ActiveDomainByID
// (NoValue when v lacks the attribute, as a tombstoned node does), First[i]
// is the lowest node holding domain entry i, and Held counts the nodes
// holding a value. Scorers and group partitions read it instead of deriving
// per-node facts per run; it is read-only, bar the values Memo keeps beside
// it.
type AttrRow struct {
	IDs   Table[int32]
	First []NodeID
	Held  int
	memo  struct {
		once     sync.Once
		key, val any
	}
}

// Memo returns what build derives from the row: built on first use, once
// under concurrent first calls, then shared by every caller for the
// generation's lifetime. A reader keeps its per-domain-entry data here without
// the graph knowing its type; the value must be read-only. A row holds one
// memo and key names its owner: a call under another key is a bug, and
// panics. A forked row (see forkRows) starts with none.
func (r *AttrRow) Memo(key any, build func() any) any {
	m := &r.memo
	m.once.Do(func() { m.key, m.val = key, build() })
	if m.key != key {
		panic(fmt.Sprintf("graph: AttrRow.Memo under %T, held for %T", key, m.key))
	}
	return m.val
}

// rowSlot holds one attribute's row once asked for (nil while building) and
// the fork ApplyBatch derived from the base's, which AttrRow serves first.
type rowSlot struct {
	once sync.Once
	row  atomic.Pointer[AttrRow]
	fork *AttrRow
}

// AttrRow returns attribute a's row (nil when a is not interned), built from
// the typed column on first use, once per generation, and shared by every
// caller after that; concurrent first calls build it once. A batch's
// generation starts with the rows its base served, forked (see forkRows).
func (g *Graph) AttrRow(a AttrID) *AttrRow {
	g.mustFrozen("AttrRow")
	if a < 0 || int(a) >= len(g.cols) {
		return nil
	}
	s := &g.rows[a]
	s.once.Do(func() {
		if r := s.fork; r != nil {
			s.row.Store(r)
		} else {
			s.row.Store(g.cols[a].row(g.ActiveDomainByID(a), g.nodeLabels.n))
		}
	})
	return s.row.Load()
}

// row places every node's value in dom, the column's active domain, by
// binary search over the typed array: raw floats (cmp.Less orders NaN first,
// as Compare does), strings, and Compare itself for bools and mixed kinds.
func (c *column) row(dom []Value, n int) *AttrRow {
	ids := make([]int32, n)
	r := &AttrRow{IDs: TableOf(ids), First: make([]NodeID, len(dom))}
	fs, ss := make([]float64, len(dom)), make([]string, len(dom))
	for i, x := range dom {
		fs[i], ss[i], r.First[i] = x.num, x.str, InvalidNode
	}
	for v := range ids {
		ids[v] = NoValue
		if !c.has(NodeID(v)) {
			continue
		}
		var i int
		switch {
		case c.nums.n > 0:
			i, _ = slices.BinarySearch(fs, c.nums.At(v))
		case c.strs.n > 0 || c.refs != nil:
			i, _ = slices.BinarySearch(ss, colStr(c, v))
		default:
			i, _ = slices.BinarySearchFunc(dom, c.value(NodeID(v)), Value.Compare)
		}
		ids[v], r.Held = int32(i), r.Held+1
		if r.First[i] == InvalidNode {
			r.First[i] = NodeID(v)
		}
	}
	return r
}

// labelAttr keys the per-(label, attribute) sorted indexes.
type labelAttr struct {
	label LabelID
	attr  AttrID
}

// MemoryStats reports the footprint of a frozen graph's columnar storage
// and sorted attribute indexes; the server surfaces it per graph.
type MemoryStats struct {
	// ColumnBytes is the estimated size of the attribute columns
	// (presence bitmaps plus typed value arrays).
	ColumnBytes int64 `json:"columnBytes"`
	// IndexBytes is the size of the sorted permutation indexes.
	IndexBytes int64 `json:"indexBytes"`
	// Indexes is the number of (label, attribute) indexes built.
	Indexes int `json:"indexes"`
}

// Memory returns the storage footprint Freeze, a snapshot or ApplyBatch set.
func (g *Graph) Memory() MemoryStats {
	g.mustFrozen("Memory")
	return g.mem
}

// internAttr returns the AttrID for name, creating it if needed.
func (g *Graph) internAttr(name string) AttrID {
	if id, ok := g.attrIDs[name]; ok {
		return id
	}
	if g.attrIDs == nil {
		g.attrIDs = make(map[string]AttrID)
	}
	id := AttrID(len(g.attrTable))
	g.attrTable = append(g.attrTable, name)
	g.attrIDs[name] = id
	return id
}

// AttrIDOf returns the interned ID of an attribute name, or InvalidAttr
// when the attribute never occurs in the graph.
func (g *Graph) AttrIDOf(name string) AttrID {
	if id, ok := g.attrIDs[name]; ok {
		return id
	}
	return InvalidAttr
}

// AttrNameOf returns the string form of an interned attribute.
func (g *Graph) AttrNameOf(id AttrID) string {
	if id < 0 || int(id) >= len(g.attrTable) {
		return ""
	}
	return g.attrTable[id]
}

// NumAttrs returns the number of distinct attribute names in the graph.
func (g *Graph) NumAttrs() int { return len(g.attrTable) }

// AttrValue returns node v's value for the interned attribute (Null when
// absent or when a == InvalidAttr). On a frozen graph this is a direct
// column read — the hot path literal evaluation compiles down to.
func (g *Graph) AttrValue(v NodeID, a AttrID) Value {
	if a < 0 || int(a) >= len(g.attrTable) {
		return Null
	}
	if g.frozen {
		return g.cols[a].value(v)
	}
	for _, kv := range g.nodeAttrs[v] {
		if kv.id == a {
			return kv.val
		}
	}
	return Null
}

// A column's frozen layout has one definition: newColumn, then three
// steps every producer drives in this order — note each cell (presence,
// count, kind uniformity), alloc the typed array the noted kind calls for,
// put each cell's value. Freeze drives them row-major from the builder
// tuples (buildColumns); ApplyBatch drives them per touched attribute from
// the base column's surviving cells plus the batch's edits (mergeColumns) —
// unless the edits keep the layout (keepsLayout), when it copies the base
// column and edits the cells in place with unset, note and put.

// newColumn returns an empty column over words×64 node slots.
func newColumn(words int) column { return column{present: newTable[uint64](words)} }

// note records that node v carries a value of kind k.
func (c *column) note(v int, k Kind) {
	if c.count == 0 {
		c.kind = k
	} else if c.kind != k {
		c.kind = KindNull // mixed
	}
	bitSet(&c.present, v)
	c.count++
}

// alloc sizes the value array for n node slots once every cell is noted:
// raw floats, strings or a bool bitmap when the cells share one kind, the
// []Value fallback when they do not, nothing for an empty column.
func (c *column) alloc(n int) {
	switch {
	case c.count == 0:
	case c.kind == KindNumber:
		c.nums = newTable[float64](n)
	case c.kind == KindString:
		c.strs = newTable[string](n)
	case c.kind == KindBool:
		c.bools = newTable[uint64](c.present.n)
	default:
		c.vals = make([]Value, n)
	}
}

// put stores a noted cell's value in the allocated array.
func (c *column) put(v int, val Value) {
	switch {
	case c.nums.n > 0:
		*c.nums.mut(v) = val.Float()
	case c.strs.n > 0:
		*c.strs.mut(v) = val.Text()
	case c.bools.n > 0:
		if val.IsTrue() {
			bitSet(&c.bools, v)
		}
	default:
		c.vals[v] = val
	}
}

// unset removes node v's cell, if it holds one, from a uniform typed
// column, leaving the slot as alloc made it (the snapshot decoder rejects a
// payload at an absent slot).
func (c *column) unset(v int) {
	if !bitGet(&c.present, v) {
		return
	}
	bitClear(&c.present, v)
	c.count--
	switch {
	case c.nums.n > 0:
		*c.nums.mut(v) = 0
	case c.strs.n > 0:
		*c.strs.mut(v) = ""
	default:
		bitClear(&c.bools, v)
	}
}

// keepsLayout reports whether applying edits (one per node) to this column
// provably leaves the layout the builder would choose for the result: the
// column is a uniform typed array, every written value has its kind, and
// at least one cell remains. Mixed columns may turn uniform and a
// snapshot's string refs become heap strings, so neither qualifies.
func (c *column) keepsLayout(edits []attrWrite) bool {
	if c.nums.n+c.strs.n+c.bools.n == 0 {
		return false
	}
	count := c.count
	for _, ed := range edits {
		if int(ed.node)>>6 < c.present.n && c.has(ed.node) {
			count--
		}
		if !ed.val.IsNull() {
			if ed.val.Kind() != c.kind {
				return false
			}
			count++
		}
	}
	return count > 0
}

// buildColumns transposes the builder-time per-node attribute slices into
// typed columns and computes the active domains; it releases the row
// storage afterwards (columns are the only post-freeze representation).
func (g *Graph) buildColumns() {
	n := g.nodeLabels.n
	g.cols, g.rows = make([]column, len(g.attrTable)), make([]rowSlot, len(g.attrTable))
	for a := range g.cols {
		g.cols[a] = newColumn((n + 63) / 64)
	}
	for i, kvs := range g.nodeAttrs {
		for _, kv := range kvs {
			g.cols[kv.id].note(i, kv.val.Kind())
		}
	}
	for a := range g.cols {
		g.cols[a].alloc(n)
	}
	for i, kvs := range g.nodeAttrs {
		for _, kv := range kvs {
			g.cols[kv.id].put(i, kv.val)
		}
	}
	g.nodeAttrs = nil
	g.domains = g.computeDomains()
	g.attrNames = make([]string, len(g.attrTable))
	copy(g.attrNames, g.attrTable)
	sort.Strings(g.attrNames)
}

// computeDomains derives the active domains — sorted distinct present
// values per attribute — by scanning the columns. Freeze calls it once;
// the snapshot loader keeps it as the fallback when the serialized DOM2
// section fails validation.
func (g *Graph) computeDomains() [][]Value {
	n := g.nodeLabels.n
	domains := make([][]Value, len(g.cols))
	for a := range g.cols {
		domains[a] = computeDomain(&g.cols[a], n)
	}
	return domains
}

// occursOn reports whether any of nodes carries the attribute.
func (c *column) occursOn(nodes []NodeID) bool {
	for _, v := range nodes {
		if c.has(v) {
			return true
		}
	}
	return false
}

// less is the order of every permutation index: attribute value under the
// Value total order, ties by NodeID. Nodes missing the attribute read Null,
// which sorts before everything.
func (c *column) less(x, y NodeID) bool {
	if cmp := c.value(x).Compare(c.value(y)); cmp != 0 {
		return cmp < 0
	}
	return x < y
}

// compare orders two nodes by their cells under the Value total order (see
// less) without boxing a uniform column's cells: a missing cell sorts
// first, raw floats compare by cmp.Compare (NaN first and -0 with +0, as
// Compare does), strings (heap or a snapshot's refs) by byte order, bools
// false first; a mixed column compares boxed Values.
func (c *column) compare(u, v NodeID) int {
	if c.vals != nil {
		return c.value(u).Compare(c.value(v))
	}
	if pu, pv := c.has(u), c.has(v); !pu || !pv {
		return boolCmp(pu, pv)
	}
	switch {
	case c.nums.n > 0:
		return cmp.Compare(c.nums.At(int(u)), c.nums.At(int(v)))
	case c.strs.n > 0 || c.refs != nil:
		return strings.Compare(colStr(c, int(u)), colStr(c, int(v)))
	}
	return boolCmp(bitGet(&c.bools, int(u)), bitGet(&c.bools, int(v)))
}

// boolCmp orders false before true.
func boolCmp(u, v bool) int {
	switch {
	case u == v:
		return 0
	case v:
		return -1
	default:
		return 1
	}
}

// sortedPerm returns a copy of nodes in permutation-index order: compare,
// ties by NodeID.
func sortedPerm(c *column, nodes []NodeID) []NodeID {
	perm := slices.Clone(nodes)
	slices.SortFunc(perm, func(x, y NodeID) int { return cmp.Or(c.compare(x, y), cmp.Compare(x, y)) })
	return perm
}

// buildIndexes constructs, for every (label, attribute) pair where the
// attribute occurs on at least one node of the label, a permutation of the
// label's nodes sorted by the attribute value (see less). Nodes missing the
// attribute are included, so a single binary search answers every
// comparison operator, including ones whose bound a missing value satisfies.
func (g *Graph) buildIndexes() {
	g.indexes = make(map[labelAttr]*permIndex)
	for label, nodes := range g.byLabel {
		for a := range g.cols {
			if c := &g.cols[a]; c.occursOn(nodes) {
				g.indexes[labelAttr{label, AttrID(a)}] = &permIndex{flat: sortedPerm(c, nodes)}
			}
		}
	}
}

// SortedIndex is a read-only view over one (label, attribute) permutation:
// the label's nodes ordered by attribute value. Obtain one from
// Graph.SortedIndex; the zero value is invalid.
type SortedIndex struct {
	col  *column
	perm *permIndex
}

// SortedIndex returns the sorted index for (label, attr), or an invalid
// view when the attribute never occurs on nodes with that label (every
// such node reads Null, so callers can evaluate the predicate once).
func (g *Graph) SortedIndex(label LabelID, attr AttrID) SortedIndex {
	g.mustFrozen("SortedIndex")
	if attr < 0 || int(attr) >= len(g.cols) {
		return SortedIndex{}
	}
	perm, ok := g.indexes[labelAttr{label, attr}]
	if !ok {
		return SortedIndex{}
	}
	return SortedIndex{col: &g.cols[attr], perm: perm}
}

// Valid reports whether the view is backed by an index.
func (ix SortedIndex) Valid() bool { return ix.perm != nil }

// Len returns the number of nodes in the index (the label's population).
func (ix SortedIndex) Len() int { return ix.perm.len() }

// At returns the i-th node in value order.
func (ix SortedIndex) At(i int) NodeID { return ix.perm.at(i) }

// ValueAt returns the attribute value of the i-th node in value order.
func (ix SortedIndex) ValueAt(i int) Value { return ix.col.value(ix.perm.at(i)) }

// Range binary-searches the half-open subrange [lo, hi) of the permutation
// whose values satisfy "value op bound" under the Value total order.
// Duplicate values at the boundaries resolve via lower/upper bound, so the
// range is exact. OpInvalid yields the empty range, matching Op.Apply.
func (ix SortedIndex) Range(op Op, bound Value) (lo, hi int) {
	n := ix.perm.len()
	lower := ix.perm.search(func(v NodeID) bool {
		return ix.col.value(v).Compare(bound) >= 0
	})
	switch op {
	case OpLT:
		return 0, lower
	case OpGE:
		return lower, n
	}
	upper := ix.perm.search(func(v NodeID) bool {
		return ix.col.value(v).Compare(bound) > 0
	})
	switch op {
	case OpEQ:
		return lower, upper
	case OpLE:
		return 0, upper
	case OpGT:
		return upper, n
	default:
		return 0, 0
	}
}
