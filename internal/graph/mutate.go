package graph

import (
	"fmt"
	"math/bits"
	"sort"
)

// Mutations on frozen graphs.
//
// A frozen Graph never changes in place — every reader (matchers, engines,
// in-flight jobs) holds an immutable generation. ApplyBatch instead merges
// one validated batch of mutations into a NEW frozen graph that shares
// every untouched slice, bucket, column and permutation index with its
// base (copy-on-write): the batch is the "unsorted tail", and the merge
// cost is proportional to the rows, columns and (label, attribute)
// indexes the batch touches — never to graph size beyond O(|V|) slice
// headers — so a small batch lands in milliseconds where a re-parse +
// re-Freeze takes seconds.
//
// Semantics:
//
//   - Batches are atomic: validation runs against the base graph plus the
//     batch's own earlier ops, and any invalid op rejects the whole batch
//     with no state change.
//   - AddNode assigns the next dense NodeID (tombstoned slots included in
//     the count — IDs are never reused); later ops in the same batch may
//     reference it.
//   - RemoveNode tombstones the slot and cascades away every incident
//     edge. The slot keeps its label (checkpointing needs it) but leaves
//     every bucket, index and column.
//   - RemoveEdge removes exactly one instance of a (from, to, label)
//     parallel edge and fails when none remains.
//   - SetAttr writes one attribute; a Null value deletes it.

// MutOp enumerates the mutation kinds.
type MutOp uint8

const (
	MutAddNode MutOp = iota + 1
	MutRemoveNode
	MutAddEdge
	MutRemoveEdge
	MutSetAttr
)

// String returns the JSON wire name of the op ("addNode", ...).
func (op MutOp) String() string {
	switch op {
	case MutAddNode:
		return "addNode"
	case MutRemoveNode:
		return "removeNode"
	case MutAddEdge:
		return "addEdge"
	case MutRemoveEdge:
		return "removeEdge"
	case MutSetAttr:
		return "setAttr"
	}
	return fmt.Sprintf("MutOp(%d)", uint8(op))
}

// Mutation is one edit in a batch. Which fields apply depends on Op:
//
//	MutAddNode:    Label, Attrs (initial tuple; applied in slice order)
//	MutRemoveNode: Node
//	MutAddEdge:    From, To, Label
//	MutRemoveEdge: From, To, Label
//	MutSetAttr:    Node, Attr, Value (Null deletes the attribute)
type Mutation struct {
	Op    MutOp
	Node  NodeID
	From  NodeID
	To    NodeID
	Label string
	Attr  string
	Attrs []AttrPair
	Value Value
}

// ApplyResult reports what one applied batch did.
type ApplyResult struct {
	// Version is the new graph's version (base version + 1).
	Version uint64
	// AddedNodes lists the NodeIDs assigned to the batch's AddNode ops,
	// in op order.
	AddedNodes []NodeID
	// NodesRemoved / EdgesAdded / EdgesRemoved count the batch's net
	// effect; EdgesRemoved includes RemoveNode cascades.
	NodesRemoved int
	EdgesAdded   int
	EdgesRemoved int
	// Ops is the number of mutations in the batch.
	Ops int
}

// edgeKey identifies a parallel-edge class during validation.
type edgeKey struct {
	from, to NodeID
	label    string
}

type plannedNode struct {
	label string
	attrs []AttrPair
}

type attrWrite struct {
	node NodeID
	name string
	val  Value // Null = delete
}

// batchPlan is the validated, normalized form of one batch.
type batchPlan struct {
	base     *Graph
	adds     []plannedNode
	addIDs   []NodeID
	removed  map[NodeID]bool // finally-dead this batch (base or batch-added)
	edgeAdds []edgeKey       // one instance each, in op order
	edgeDels []edgeKey       // explicit RemoveEdge instances
	writes   []attrWrite     // in op order (last write per (node, attr) wins)
}

func (p *batchPlan) baseN() int { return p.base.NumNodes() }
func (p *batchPlan) newN() int  { return p.base.NumNodes() + len(p.adds) }

// alive reports whether v is live under base + this batch's earlier ops.
func (p *batchPlan) alive(v NodeID) bool {
	if p.removed[v] {
		return false
	}
	if int(v) < p.baseN() {
		return p.base.Alive(v)
	}
	return int(v) < p.newN()
}

// countEdges counts the (to, label) parallel instances in base.out[from].
func countBaseEdges(g *Graph, from, to NodeID, label string) int {
	l := g.LookupLabel(label)
	if l == InvalidLabel {
		return 0
	}
	n := 0
	for _, e := range g.EdgeRun(from, l, true) {
		if e.To == to {
			n++
		}
	}
	return n
}

// planBatch validates ops against base and returns the normalized plan.
// It never modifies base.
func planBatch(base *Graph, ops []Mutation) (*batchPlan, error) {
	if !base.frozen {
		return nil, fmt.Errorf("graph: mutations require a frozen graph; call Freeze first")
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("graph: empty mutation batch")
	}
	p := &batchPlan{base: base, removed: make(map[NodeID]bool)}
	// delta tracks this batch's parallel-edge count adjustments on top of
	// the base multiset, so RemoveEdge can be validated mid-batch.
	delta := make(map[edgeKey]int)
	avail := func(k edgeKey) int {
		n := delta[k]
		if int(k.from) < p.baseN() && int(k.to) < p.baseN() &&
			base.Alive(k.from) && base.Alive(k.to) {
			n += countBaseEdges(base, k.from, k.to, k.label)
		}
		return n
	}
	for i, m := range ops {
		switch m.Op {
		case MutAddNode:
			id := NodeID(p.newN())
			attrs := make([]AttrPair, len(m.Attrs))
			copy(attrs, m.Attrs)
			p.adds = append(p.adds, plannedNode{label: m.Label, attrs: attrs})
			p.addIDs = append(p.addIDs, id)
		case MutRemoveNode:
			if !p.alive(m.Node) {
				return nil, fmt.Errorf("graph: op %d: removeNode %d: no such live node", i, m.Node)
			}
			p.removed[m.Node] = true
			// Cascade inside the batch: pending edge deltas touching the
			// node die with it (base edges cascade at apply time).
			for k := range delta {
				if k.from == m.Node || k.to == m.Node {
					delete(delta, k)
				}
			}
		case MutAddEdge:
			if !p.alive(m.From) {
				return nil, fmt.Errorf("graph: op %d: addEdge: source %d is not a live node", i, m.From)
			}
			if !p.alive(m.To) {
				return nil, fmt.Errorf("graph: op %d: addEdge: target %d is not a live node", i, m.To)
			}
			k := edgeKey{m.From, m.To, m.Label}
			p.edgeAdds = append(p.edgeAdds, k)
			delta[k]++
		case MutRemoveEdge:
			if !p.alive(m.From) || !p.alive(m.To) {
				return nil, fmt.Errorf("graph: op %d: removeEdge: endpoint of %d->%d is not a live node", i, m.From, m.To)
			}
			k := edgeKey{m.From, m.To, m.Label}
			if avail(k) <= 0 {
				return nil, fmt.Errorf("graph: op %d: removeEdge: no edge %d->%d labeled %q", i, m.From, m.To, m.Label)
			}
			p.edgeDels = append(p.edgeDels, k)
			delta[k]--
		case MutSetAttr:
			if !p.alive(m.Node) {
				return nil, fmt.Errorf("graph: op %d: setAttr %q: node %d is not a live node", i, m.Attr, m.Node)
			}
			if m.Attr == "" {
				return nil, fmt.Errorf("graph: op %d: setAttr: empty attribute name", i)
			}
			p.writes = append(p.writes, attrWrite{node: m.Node, name: m.Attr, val: m.Value})
		default:
			return nil, fmt.Errorf("graph: op %d: unknown mutation op %d", i, m.Op)
		}
	}
	return p, nil
}

// ApplyBatch validates ops against base and, if the whole batch is valid,
// merges it into a new frozen graph sharing every untouched structure
// with base (base itself is never modified and stays fully usable). The
// new graph's version is base's + 1. For memory-mapped bases the new
// graph retains the mapping; release it with Close as usual.
func ApplyBatch(base *Graph, ops []Mutation) (*Graph, *ApplyResult, error) {
	p, err := planBatch(base, ops)
	if err != nil {
		return nil, nil, err
	}
	ng, res := applyPlan(p)
	res.Ops = len(ops)
	return ng, res, nil
}

// applyPlan executes a validated plan: the copy-on-write merge.
func applyPlan(p *batchPlan) (*Graph, *ApplyResult) {
	base := p.base
	base.domainList() // force lazy v2 domains before sharing them
	n0, n := p.baseN(), p.newN()
	words := (n + 63) / 64
	res := &ApplyResult{Version: base.version + 1, AddedNodes: p.addIDs}

	ng := &Graph{
		numEdges: base.numEdges,
		frozen:   true,
		version:  base.version + 1,
		lineage:  base.lineage,
		backing:  base.backing,
		strTab:   base.strTab,
	}
	if ng.backing != nil {
		ng.backing.retain()
	}

	// Dictionaries: copy-on-extend only when the batch introduces new
	// label or attribute strings; otherwise both generations share the
	// read-only dictionaries.
	ng.labels, ng.labelIDs = base.labels, base.labelIDs
	needLabel := func(s string) {
		if _, ok := ng.labelIDs[s]; ok {
			return
		}
		if len(ng.labels) == len(base.labels) { // first extension: copy
			ng.labels = append([]string(nil), base.labels...)
			ids := make(map[string]LabelID, len(base.labelIDs)+1)
			for k, v := range base.labelIDs {
				ids[k] = v
			}
			ng.labelIDs = ids
		}
		ng.labelIDs[s] = LabelID(len(ng.labels))
		ng.labels = append(ng.labels, s)
	}
	for _, a := range p.adds {
		needLabel(a.label)
	}
	for _, k := range p.edgeAdds {
		needLabel(k.label)
	}
	ng.attrTable, ng.attrIDs = base.attrTable, base.attrIDs
	needAttr := func(s string) {
		if _, ok := ng.attrIDs[s]; ok {
			return
		}
		if len(ng.attrTable) == len(base.attrTable) {
			ng.attrTable = append([]string(nil), base.attrTable...)
			ids := make(map[string]AttrID, len(base.attrIDs)+1)
			for k, v := range base.attrIDs {
				ids[k] = v
			}
			ng.attrIDs = ids
		}
		ng.attrIDs[s] = AttrID(len(ng.attrTable))
		ng.attrTable = append(ng.attrTable, s)
	}
	for _, a := range p.adds {
		for _, kv := range a.attrs {
			needAttr(kv.Name)
		}
	}
	for _, w := range p.writes {
		needAttr(w.name)
	}
	if len(ng.attrTable) == len(base.attrTable) {
		ng.attrNames = base.attrNames
	} else {
		ng.attrNames = append([]string(nil), ng.attrTable...)
		sort.Strings(ng.attrNames)
	}

	// Node slots: labels and tombstones.
	ng.nodeLabels = make([]LabelID, n)
	copy(ng.nodeLabels, base.nodeLabels)
	for i, a := range p.adds {
		ng.nodeLabels[n0+i] = ng.labelIDs[a.label]
	}
	ng.dead = make([]uint64, words)
	copy(ng.dead, base.dead)
	ng.deadCount = base.deadCount
	for v := range p.removed {
		bitSet(ng.dead, int(v))
		ng.deadCount++
	}
	res.NodesRemoved = len(p.removed)
	finallyAlive := func(v NodeID) bool { return !bitGet(ng.dead, int(v)) }

	// Net edge churn per parallel-edge class: drop planned adds/dels whose
	// endpoint died later in the batch (the cascade below subsumes them)
	// and cancel add/del pairs, so row rebuilds only ever delete instances
	// that exist in the base row.
	net := make(map[edgeKey]int)
	for _, k := range p.edgeAdds {
		if finallyAlive(k.from) && finallyAlive(k.to) {
			net[k]++
		}
	}
	for _, k := range p.edgeDels {
		if finallyAlive(k.from) && finallyAlive(k.to) {
			net[k]--
		}
	}

	// Adjacency: copy the row-header arrays, then rebuild only touched
	// rows. Every edit is expressed as per-row add/del instance lists.
	ng.out = make([][]Edge, n)
	copy(ng.out, base.out)
	ng.in = make([][]Edge, n)
	copy(ng.in, base.in)
	outAdd := make(map[NodeID][]Edge)
	inAdd := make(map[NodeID][]Edge)
	outDel := make(map[NodeID][]Edge)
	inDel := make(map[NodeID][]Edge)
	for k, d := range net {
		l := ng.labelIDs[k.label]
		for ; d > 0; d-- {
			outAdd[k.from] = append(outAdd[k.from], Edge{To: k.to, Label: l})
			inAdd[k.to] = append(inAdd[k.to], Edge{To: k.from, Label: l})
			res.EdgesAdded++
		}
		for ; d < 0; d++ {
			outDel[k.from] = append(outDel[k.from], Edge{To: k.to, Label: l})
			inDel[k.to] = append(inDel[k.to], Edge{To: k.from, Label: l})
			res.EdgesRemoved++
		}
	}
	// RemoveNode cascade over base edges: clear the dead node's rows and
	// drop its instances from every neighbor's opposite row.
	for v := range p.removed {
		if int(v) >= n0 {
			continue // batch-added: never had base rows
		}
		for _, e := range base.out[v] {
			res.EdgesRemoved++
			if finallyAlive(e.To) {
				inDel[e.To] = append(inDel[e.To], Edge{To: v, Label: e.Label})
			}
		}
		for _, e := range base.in[v] {
			if finallyAlive(e.To) {
				outDel[e.To] = append(outDel[e.To], Edge{To: v, Label: e.Label})
				res.EdgesRemoved++
			}
			// dead->dead edges were already counted from the out side
		}
		ng.out[v], ng.in[v] = nil, nil
	}
	ng.numEdges += res.EdgesAdded - res.EdgesRemoved
	rebuildRow := func(rows [][]Edge, baseRows [][]Edge, v NodeID, adds, dels []Edge) {
		var row []Edge
		if int(v) < len(baseRows) {
			row = baseRows[v]
		}
		nr := make([]Edge, 0, len(row)+len(adds)-len(dels))
		if len(dels) > 0 {
			drop := make(map[Edge]int, len(dels))
			for _, e := range dels {
				drop[e]++
			}
			for _, e := range row {
				if drop[e] > 0 {
					drop[e]--
					continue
				}
				nr = append(nr, e)
			}
		} else {
			nr = append(nr, row...)
		}
		nr = append(nr, adds...)
		sortEdges(nr)
		rows[v] = nr
	}
	for v := range outAdd {
		if finallyAlive(v) {
			rebuildRow(ng.out, base.out, v, outAdd[v], outDel[v])
			delete(outDel, v)
		}
	}
	for v := range outDel {
		if finallyAlive(v) {
			rebuildRow(ng.out, base.out, v, nil, outDel[v])
		}
	}
	for v := range inAdd {
		if finallyAlive(v) {
			rebuildRow(ng.in, base.in, v, inAdd[v], inDel[v])
			delete(inDel, v)
		}
	}
	for v := range inDel {
		if finallyAlive(v) {
			rebuildRow(ng.in, base.in, v, nil, inDel[v])
		}
	}

	// Label buckets: copy the map, rebuild buckets whose membership
	// changed. Buckets stay in ascending NodeID order (batch-added IDs are
	// all greater than every base ID).
	touchedLabels := make(map[LabelID]bool)
	for v := range p.removed {
		if int(v) < n0 {
			touchedLabels[base.nodeLabels[v]] = true
		}
	}
	addsByLabel := make(map[LabelID][]NodeID)
	for i := range p.adds {
		id := p.addIDs[i]
		if !finallyAlive(id) {
			continue
		}
		l := ng.nodeLabels[id]
		touchedLabels[l] = true
		addsByLabel[l] = append(addsByLabel[l], id)
	}
	ng.byLabel = base.byLabel
	if len(touchedLabels) > 0 {
		ng.byLabel = make(map[LabelID][]NodeID, len(base.byLabel)+len(touchedLabels))
		for l, bucket := range base.byLabel {
			ng.byLabel[l] = bucket
		}
		for l := range touchedLabels {
			old := base.byLabel[l]
			nb := make([]NodeID, 0, len(old)+len(addsByLabel[l]))
			for _, v := range old {
				if finallyAlive(v) {
					nb = append(nb, v)
				}
			}
			nb = append(nb, addsByLabel[l]...)
			if len(nb) == 0 {
				delete(ng.byLabel, l)
				continue
			}
			ng.byLabel[l] = nb
		}
	}

	// Columns: a column is touched when the batch writes it, an added node
	// carries it, or a removed node carried it. Touched columns are
	// rebuilt logically (restoring the exact kind-uniformity layout Freeze
	// would produce); untouched columns are shared, with the presence
	// bitmap extended when the slot count crossed a word boundary.
	touchedAttrs := make(map[AttrID]bool)
	// Last-write-wins view of the batch's attribute writes.
	writeVal := make(map[[2]int32]Value)
	hasWrite := make(map[[2]int32]bool)
	for _, w := range p.writes {
		if !finallyAlive(w.node) {
			continue
		}
		a := ng.attrIDs[w.name]
		touchedAttrs[a] = true
		writeVal[[2]int32{int32(w.node), int32(a)}] = w.val
		hasWrite[[2]int32{int32(w.node), int32(a)}] = true
	}
	addVal := make(map[[2]int32]Value)
	for i, an := range p.adds {
		id := p.addIDs[i]
		if !finallyAlive(id) {
			continue
		}
		for _, kv := range an.attrs {
			a := ng.attrIDs[kv.Name]
			touchedAttrs[a] = true
			k := [2]int32{int32(id), int32(a)}
			if !hasWrite[k] { // explicit write later in the batch wins
				addVal[k] = kv.Value
			}
		}
	}
	for v := range p.removed {
		if int(v) >= n0 {
			continue
		}
		for a := range base.cols {
			if base.cols[a].has(v) {
				touchedAttrs[AttrID(a)] = true
			}
		}
	}
	// logicalValue is the post-batch value of (v, a): the merge's source
	// of truth for rebuilding touched columns, domains and indexes.
	logicalValue := func(v NodeID, a AttrID) (Value, bool) {
		if !finallyAlive(v) {
			return Null, false
		}
		k := [2]int32{int32(v), int32(a)}
		if hasWrite[k] {
			val := writeVal[k]
			return val, val.Kind() != KindNull
		}
		if val, ok := addVal[k]; ok {
			return val, val.Kind() != KindNull
		}
		if int(v) < n0 && int(a) < len(base.cols) && base.cols[a].has(v) {
			return base.cols[a].value(v), true
		}
		return Null, false
	}
	ng.cols = make([]column, len(ng.attrTable))
	copy(ng.cols, base.cols)
	for a := range ng.cols {
		c := &ng.cols[a]
		if touchedAttrs[AttrID(a)] {
			*c = rebuildColumn(ng, AttrID(a), n, words, logicalValue)
			continue
		}
		if len(c.present) < words {
			np := make([]uint64, words)
			copy(np, c.present)
			c.present = np
		} else if c.present == nil {
			c.present = make([]uint64, words)
		}
	}

	// Active domains: recompute only touched attributes.
	ng.domains = make([][]Value, len(ng.attrTable))
	copy(ng.domains, base.domains)
	for a := range touchedAttrs {
		ng.domains[a] = computeDomain(&ng.cols[a], n)
	}

	// Permutation indexes: a (label, attr) pair is touched when the
	// label's bucket changed (adds join every index of their label with a
	// Null-or-better rank; removals leave all of them) or the attribute
	// was written on a node of that label. Touched pairs merge the sorted
	// tail of changed nodes into the filtered old permutation; untouched
	// pairs are shared.
	type pairTail struct{ changed map[NodeID]bool }
	touchedPairs := make(map[labelAttr]*pairTail)
	touch := func(l LabelID, a AttrID) *pairTail {
		k := labelAttr{l, a}
		t := touchedPairs[k]
		if t == nil {
			t = &pairTail{changed: make(map[NodeID]bool)}
			touchedPairs[k] = t
		}
		return t
	}
	for l := range touchedLabels {
		for k := range base.indexes {
			if k.label == l {
				t := touch(l, k.attr)
				for _, v := range addsByLabel[l] {
					t.changed[v] = true
				}
			}
		}
		// Newly-added nodes can create pairs that never existed.
		for _, v := range addsByLabel[l] {
			for a := range ng.cols {
				if ng.cols[a].has(v) {
					t := touch(l, AttrID(a))
					for _, w := range addsByLabel[l] {
						t.changed[w] = true
					}
				}
			}
		}
	}
	for k := range hasWrite {
		v, a := NodeID(k[0]), AttrID(k[1])
		t := touch(ng.nodeLabels[v], a)
		t.changed[v] = true
		for _, w := range addsByLabel[ng.nodeLabels[v]] {
			t.changed[w] = true
		}
	}
	ng.indexes = base.indexes
	if len(touchedPairs) > 0 {
		ng.indexes = make(map[labelAttr][]NodeID, len(base.indexes))
		for k, perm := range base.indexes {
			ng.indexes[k] = perm
		}
		for k, t := range touchedPairs {
			perm := mergeIndex(ng, base.indexes[k], ng.byLabel[k.label], k.attr, t.changed)
			if perm == nil {
				delete(ng.indexes, k)
			} else {
				ng.indexes[k] = perm
			}
		}
	}

	// Footprint and degree stats, then the derived matcher tables.
	for a := range ng.cols {
		ng.mem.ColumnBytes += ng.cols[a].bytes()
	}
	for _, perm := range ng.indexes {
		ng.mem.IndexBytes += int64(len(perm)) * 4
	}
	ng.mem.Indexes = len(ng.indexes)
	for v := 0; v < n; v++ {
		if d := len(ng.out[v]); d > ng.maxOutDeg {
			ng.maxOutDeg = d
		}
		if d := len(ng.in[v]); d > ng.maxInDeg {
			ng.maxInDeg = d
		}
	}
	ng.buildDerived()
	return ng, res
}

// rebuildColumn constructs one attribute column from the post-batch
// logical values, reproducing buildColumns' layout exactly: presence
// bitmap + count, kind-uniform typed array (floats, strings, bool bitmap)
// or the mixed []Value fallback.
func rebuildColumn(g *Graph, a AttrID, n, words int, logical func(NodeID, AttrID) (Value, bool)) column {
	c := column{present: make([]uint64, words)}
	// One logical() pass: the closure resolves each (node, attr) through
	// several batch maps, so stash the values for the typed fill below
	// instead of resolving every present node twice.
	tmp := make([]Value, n)
	first := true
	for v := 0; v < n; v++ {
		val, ok := logical(NodeID(v), a)
		if !ok {
			continue
		}
		bitSet(c.present, v)
		tmp[v] = val
		c.count++
		if first {
			c.kind = val.Kind()
			first = false
		} else if c.kind != val.Kind() {
			c.kind = KindNull // mixed
		}
	}
	if c.count == 0 {
		c.kind = KindNull
		return c
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
	for v := 0; v < n; v++ {
		if !bitGet(c.present, v) {
			continue
		}
		val := tmp[v]
		switch {
		case c.nums != nil:
			c.nums[v] = val.Float()
		case c.strs != nil:
			c.strs[v] = val.Text()
		case c.bools != nil:
			if val.IsTrue() {
				bitSet(c.bools, v)
			}
		default:
			c.vals[v] = val
		}
	}
	return c
}

// computeDomain derives one column's active domain. Uniform
// typed columns dedup before sorting — domains are usually tiny relative
// to the column, so hashing the distinct values first turns the dominant
// O(count·log count) Value sort into O(count) + O(d·log d) — producing
// exactly the order the generic path yields within one kind (numeric,
// lexicographic, false<true). Mixed, interned-ref, and NaN-bearing
// columns take the generic sort (NaN keys don't dedup in a map; the
// generic comparator sorts NaN first and equal to itself).
func computeDomain(c *column, n int) []Value {
	switch {
	case c.vals != nil || c.refs != nil:
		// generic below
	case c.nums != nil:
		seen := make(map[float64]struct{}, 64)
		nan := false
		for i := 0; i < n && !nan; i++ {
			if c.has(NodeID(i)) {
				f := c.nums[i]
				if f != f {
					nan = true
					break
				}
				seen[f] = struct{}{}
			}
		}
		if !nan {
			fs := make([]float64, 0, len(seen))
			for f := range seen {
				fs = append(fs, f)
			}
			sort.Float64s(fs)
			out := make([]Value, len(fs))
			for i, f := range fs {
				out[i] = Num(f)
			}
			return out
		}
	case c.strs != nil:
		seen := make(map[string]struct{}, 64)
		for i := 0; i < n; i++ {
			if c.has(NodeID(i)) {
				seen[c.strs[i]] = struct{}{}
			}
		}
		ss := make([]string, 0, len(seen))
		for s := range seen {
			ss = append(ss, s)
		}
		sort.Strings(ss)
		out := make([]Value, len(ss))
		for i, s := range ss {
			out[i] = Str(s)
		}
		return out
	case c.bools != nil:
		var hasF, hasT bool
		for i := 0; i < n && !(hasF && hasT); i++ {
			if c.has(NodeID(i)) {
				if bitGet(c.bools, i) {
					hasT = true
				} else {
					hasF = true
				}
			}
		}
		out := make([]Value, 0, 2)
		if hasF {
			out = append(out, Bool(false))
		}
		if hasT {
			out = append(out, Bool(true))
		}
		return out
	}
	vs := make([]Value, 0, c.count)
	for i := 0; i < n; i++ {
		if c.has(NodeID(i)) {
			vs = append(vs, c.value(NodeID(i)))
		}
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i].Compare(vs[j]) < 0 })
	dedup := vs[:0]
	for i, v := range vs {
		if i == 0 || !v.Equal(vs[i-1]) {
			dedup = append(dedup, v)
		}
	}
	return dedup
}

// mergeIndex produces the new permutation for one touched (label, attr)
// pair: the old permutation minus dead and changed nodes (still sorted —
// untouched values didn't move) merged with the sorted tail of changed
// bucket members, ties by NodeID exactly as buildIndexes orders them.
// Returns nil when the attribute no longer occurs on any bucket node (the
// index is dropped, as a fresh Freeze would).
func mergeIndex(g *Graph, oldPerm, bucket []NodeID, a AttrID, changed map[NodeID]bool) []NodeID {
	if len(bucket) == 0 {
		return nil
	}
	c := &g.cols[a]
	occupancy := 0
	for _, v := range bucket {
		if c.has(v) {
			occupancy++
		}
	}
	if occupancy == 0 {
		return nil
	}
	less := func(x, y NodeID) bool {
		if cmp := c.value(x).Compare(c.value(y)); cmp != 0 {
			return cmp < 0
		}
		return x < y
	}
	if oldPerm == nil {
		perm := make([]NodeID, len(bucket))
		copy(perm, bucket)
		sort.Slice(perm, func(i, j int) bool { return less(perm[i], perm[j]) })
		return perm
	}
	stable := make([]NodeID, 0, len(oldPerm))
	for _, v := range oldPerm {
		if g.Alive(v) && !changed[v] {
			stable = append(stable, v)
		}
	}
	tail := make([]NodeID, 0, len(changed))
	for _, v := range bucket {
		if changed[v] {
			tail = append(tail, v)
		}
	}
	sort.Slice(tail, func(i, j int) bool { return less(tail[i], tail[j]) })
	perm := make([]NodeID, 0, len(stable)+len(tail))
	i, j := 0, 0
	for i < len(stable) && j < len(tail) {
		if less(tail[j], stable[i]) {
			perm = append(perm, tail[j])
			j++
		} else {
			perm = append(perm, stable[i])
			i++
		}
	}
	perm = append(perm, stable[i:]...)
	perm = append(perm, tail[j:]...)
	return perm
}

// Tombstones returns the tombstoned NodeIDs in ascending order (nil when
// the graph has none).
func (g *Graph) Tombstones() []NodeID {
	if g.deadCount == 0 {
		return nil
	}
	out := make([]NodeID, 0, g.deadCount)
	for w, word := range g.dead {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			out = append(out, NodeID(w*64+b))
		}
	}
	return out
}
