package graph

import (
	"math"
	"sort"
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
	present []uint64
	nums    []float64 // kind == KindNumber
	strs    []string  // kind == KindString
	bools   []uint64  // kind == KindBool: value bitmap
	vals    []Value   // mixed kinds

	// refs/tab replace strs for string columns served from a mapped
	// snapshot: refs[v] is a 1-based reference into the graph's lazily
	// materialized string table (0 = absent). See storage.go.
	refs []uint32
	tab  *strTable
}

func bitGet(bm []uint64, i int) bool { return bm[i>>6]&(1<<uint(i&63)) != 0 }
func bitSet(bm []uint64, i int)      { bm[i>>6] |= 1 << uint(i&63) }

// has reports whether node v carries the attribute.
func (c *column) has(v NodeID) bool { return bitGet(c.present, int(v)) }

// value reads node v's value from the column (Null when absent).
func (c *column) value(v NodeID) Value {
	if !bitGet(c.present, int(v)) {
		return Null
	}
	switch {
	case c.vals != nil:
		return c.vals[v]
	case c.nums != nil:
		return Num(c.nums[v])
	case c.strs != nil:
		return Str(c.strs[v])
	case c.refs != nil:
		return Str(c.tab.str(c.refs[v]))
	default:
		return Bool(bitGet(c.bools, int(v)))
	}
}

// bytes estimates the column's memory footprint.
func (c *column) bytes() int64 {
	b := int64(len(c.present)+len(c.bools))*8 + int64(len(c.nums))*8
	for _, s := range c.strs {
		b += int64(len(s)) + 16
	}
	b += int64(len(c.vals))*32 + int64(len(c.refs))*4
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
		if c := &g.cols[a]; c.nums != nil && bound.kind == KindNumber && !math.IsNaN(bound.num) {
			b := bound.num
			for _, v := range base {
				cmp := -1 // Null and NaN both sort below the bound
				if bitGet(c.present, int(v)) {
					switch x := c.nums[v]; {
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

// Memory returns the storage footprint computed at Freeze.
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

// buildColumns transposes the builder-time per-node attribute slices into
// typed columns and computes the active domains; it releases the row
// storage afterwards (columns are the only post-freeze representation).
func (g *Graph) buildColumns() {
	n := len(g.nodeLabels)
	words := (n + 63) / 64
	g.cols = make([]column, len(g.attrTable))
	// First pass: presence, counts and kind uniformity.
	for i := range g.nodeAttrs {
		for _, kv := range g.nodeAttrs[i] {
			c := &g.cols[kv.id]
			if c.present == nil {
				c.present = make([]uint64, words)
				c.kind = kv.val.Kind()
			} else if c.kind != kv.val.Kind() {
				c.kind = KindNull // mixed
			}
			bitSet(c.present, i)
			c.count++
		}
	}
	for a := range g.cols {
		c := &g.cols[a]
		if c.present == nil {
			c.present = make([]uint64, words)
			continue
		}
		switch c.kind {
		case KindNumber:
			c.nums = make([]float64, n)
		case KindString:
			c.strs = make([]string, n)
		case KindBool:
			c.bools = make([]uint64, words)
		default:
			c.vals = make([]Value, n)
		}
	}
	// Second pass: fill the typed arrays, then release the row storage.
	for i := range g.nodeAttrs {
		for _, kv := range g.nodeAttrs[i] {
			c := &g.cols[kv.id]
			switch {
			case c.nums != nil:
				c.nums[i] = kv.val.Float()
			case c.strs != nil:
				c.strs[i] = kv.val.Text()
			case c.bools != nil:
				if kv.val.IsTrue() {
					bitSet(c.bools, i)
				}
			default:
				c.vals[i] = kv.val
			}
		}
	}
	g.nodeAttrs = nil
	g.domains = g.computeDomains()
	for a := range g.cols {
		g.mem.ColumnBytes += g.cols[a].bytes()
	}
	g.attrNames = make([]string, len(g.attrTable))
	copy(g.attrNames, g.attrTable)
	sort.Strings(g.attrNames)
}

// computeDomains derives the active domains — sorted distinct present
// values per attribute — by scanning the columns. Freeze calls it once;
// the snapshot loader keeps it as the fallback when the serialized DOM2
// section fails validation.
func (g *Graph) computeDomains() [][]Value {
	n := len(g.nodeLabels)
	domains := make([][]Value, len(g.cols))
	for a := range g.cols {
		domains[a] = computeDomain(&g.cols[a], n)
	}
	return domains
}

// buildIndexes constructs, for every (label, attribute) pair where the
// attribute occurs on at least one node of the label, a permutation of the
// label's nodes sorted by the attribute value under the Value total order
// (ties by NodeID). Nodes missing the attribute are included — Null sorts
// before everything, so a single binary search answers every comparison
// operator, including ones whose bound a missing value satisfies.
func (g *Graph) buildIndexes() {
	g.indexes = make(map[labelAttr][]NodeID)
	for label, nodes := range g.byLabel {
		// Which attributes occur on this label at all.
		seen := make(map[AttrID]bool)
		for _, v := range nodes {
			for a := range g.cols {
				if g.cols[a].has(v) {
					seen[AttrID(a)] = true
				}
			}
		}
		for a := range seen {
			c := &g.cols[a]
			perm := make([]NodeID, len(nodes))
			copy(perm, nodes)
			sort.Slice(perm, func(i, j int) bool {
				if cmp := c.value(perm[i]).Compare(c.value(perm[j])); cmp != 0 {
					return cmp < 0
				}
				return perm[i] < perm[j]
			})
			g.indexes[labelAttr{label, a}] = perm
			g.mem.IndexBytes += int64(len(perm)) * 4
			g.mem.Indexes++
		}
	}
}

// SortedIndex is a read-only view over one (label, attribute) permutation:
// the label's nodes ordered by attribute value. Obtain one from
// Graph.SortedIndex; the zero value is invalid.
type SortedIndex struct {
	col  *column
	perm []NodeID
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
func (ix SortedIndex) Len() int { return len(ix.perm) }

// At returns the i-th node in value order.
func (ix SortedIndex) At(i int) NodeID { return ix.perm[i] }

// ValueAt returns the attribute value of the i-th node in value order.
func (ix SortedIndex) ValueAt(i int) Value { return ix.col.value(ix.perm[i]) }

// Range binary-searches the half-open subrange [lo, hi) of the permutation
// whose values satisfy "value op bound" under the Value total order.
// Duplicate values at the boundaries resolve via lower/upper bound, so the
// range is exact. OpInvalid yields the empty range, matching Op.Apply.
func (ix SortedIndex) Range(op Op, bound Value) (lo, hi int) {
	n := len(ix.perm)
	lower := sort.Search(n, func(i int) bool {
		return ix.col.value(ix.perm[i]).Compare(bound) >= 0
	})
	switch op {
	case OpLT:
		return 0, lower
	case OpGE:
		return lower, n
	}
	upper := lower + sort.Search(n-lower, func(i int) bool {
		return ix.col.value(ix.perm[lower+i]).Compare(bound) > 0
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
