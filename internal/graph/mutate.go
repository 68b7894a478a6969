package graph

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sort"
)

// Mutations on frozen graphs.
//
// A frozen Graph never changes in place — every reader (matchers, engines,
// in-flight jobs) holds an immutable generation. ApplyBatch instead merges
// one validated batch of mutations into a NEW frozen graph that shares
// every untouched table chunk, bucket, column and permutation piece with
// its base (copy-on-write, see chunk.go): the batch is the "unsorted
// tail", and the merge cost is proportional to the rows, columns and
// (label, attribute) indexes the batch touches — never to graph size beyond
// the chunk pointers of the tables it forks and the buckets of the labels
// it touches — so a small batch lands in milliseconds where a re-parse +
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
	// Touched sizes what the merge rebuilt for this batch.
	Touched Touched
}

// Touched sizes the structures one batch made ApplyBatch build; everything
// it does not count the new generation shares with its base, or copied
// from it without looking at the rows.
type Touched struct {
	// LabelsReranked counts the label buckets whose membership changed.
	LabelsReranked int `json:"labelsReranked"`
	// OutRows / InRows count the adjacency rows rebuilt.
	OutRows int `json:"outRows"`
	InRows  int `json:"inRows"`
	// ColumnsPatched counts the touched columns that kept their typed
	// layout and had only the edited cells written; ColumnsRebuilt those
	// that went back through the column builder.
	ColumnsPatched int `json:"columnsPatched"`
	ColumnsRebuilt int `json:"columnsRebuilt"`
	// RowsForked counts the AttrRows derived from the base's (forkRows);
	// RowsRemapped those whose entries all went through an old→new table.
	RowsForked   int `json:"rowsForked"`
	RowsRemapped int `json:"rowsRemapped"`
	// IndexesMerged counts the (label, attribute) permutations re-merged.
	IndexesMerged int `json:"indexesMerged"`
	// DomainAdded / DomainDropped count the values that entered and left
	// the active domains.
	DomainAdded   int `json:"domainAdded"`
	DomainDropped int `json:"domainDropped"`
	// DerivedRebuilt reports that the derived tables were rebuilt for every
	// row because the run tables changed shape, not patched.
	DerivedRebuilt bool `json:"derivedRebuilt"`
	// ChunkBytes is the size of the per-node table chunks the new generation
	// does not share with its base: the ones the batch cloned or added,
	// forked rows' included.
	ChunkBytes int64 `json:"chunkBytes"`
}

// edgeKey identifies a parallel-edge class during validation.
type edgeKey struct {
	from, to NodeID
	label    string
}

type attrWrite struct {
	node NodeID
	name string
	val  Value // Null = delete
}

// batchPlan is the validated, normalized form of one batch.
type batchPlan struct {
	base       *Graph
	adds       []string // labels of the added nodes
	addIDs     []NodeID
	removed    map[NodeID]bool // finally-dead this batch (base or batch-added)
	edgeLabels []string        // labels of the AddEdge ops, in op order
	// net is the batch's instance-count change per parallel-edge class
	// between nodes that survive it: AddEdge and RemoveEdge pairs cancel, and
	// a RemoveNode drops the classes touching the node (its cascade over the
	// base rows subsumes them).
	net map[edgeKey]int
	// writes lists attribute writes in op order, an added node's initial
	// tuple included (last write per (node, attr) wins).
	writes []attrWrite
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
	p := &batchPlan{base: base, removed: make(map[NodeID]bool), net: make(map[edgeKey]int)}
	// avail counts the instances of k under base + the batch's earlier ops,
	// so RemoveEdge can be validated mid-batch.
	avail := func(k edgeKey) int {
		n := p.net[k]
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
			p.adds = append(p.adds, m.Label)
			p.addIDs = append(p.addIDs, id)
			for _, kv := range m.Attrs {
				p.writes = append(p.writes, attrWrite{node: id, name: kv.Name, val: kv.Value})
			}
		case MutRemoveNode:
			if !p.alive(m.Node) {
				return nil, fmt.Errorf("graph: op %d: removeNode %d: no such live node", i, m.Node)
			}
			p.removed[m.Node] = true
			// Cascade inside the batch: pending edge changes touching the
			// node die with it (base edges cascade at apply time).
			for k := range p.net {
				if k.from == m.Node || k.to == m.Node {
					delete(p.net, k)
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
			p.edgeLabels = append(p.edgeLabels, m.Label)
			p.net[k]++
		case MutRemoveEdge:
			if !p.alive(m.From) || !p.alive(m.To) {
				return nil, fmt.Errorf("graph: op %d: removeEdge: endpoint of %d->%d is not a live node", i, m.From, m.To)
			}
			k := edgeKey{m.From, m.To, m.Label}
			if avail(k) <= 0 {
				return nil, fmt.Errorf("graph: op %d: removeEdge: no edge %d->%d labeled %q", i, m.From, m.To, m.Label)
			}
			p.net[k]--
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

// batchEdits is one copy-on-write merge in progress: the validated plan,
// the generation under construction, and the batch restated per derived
// structure — which adjacency rows, label buckets, attribute columns and
// (label, attribute) permutations it touches, and with what. Everything a
// touched set does not name is shared with the base generation.
type batchEdits struct {
	p     *batchPlan
	ng    *Graph
	res   *ApplyResult
	words int // presence-bitmap width of the new generation
	// removedBase lists the removed nodes that exist in the base (a node
	// added and removed by the same batch leaves no trace).
	removedBase []NodeID
	// dirty lists, per direction (out, in), the nodes whose adjacency row
	// was rebuilt or cleared.
	dirty [2][]NodeID

	// touchedLabels are the buckets whose membership changed; addsByLabel
	// lists their surviving added nodes, ascending.
	touchedLabels map[LabelID]bool
	addsByLabel   map[LabelID][]NodeID
	// cells holds, by AttrID, the batch's last-write-wins edits ascending by
	// node (including the Null edits that clear a removed node's cells); a
	// column is touched exactly when its list is non-empty.
	cells [][]attrWrite
	// touchedPairs are the permutation indexes to re-merge: every index of a
	// touched label plus every (label, attribute) a surviving edit lands on.
	touchedPairs map[labelAttr]bool
	colBytes     int64 // the change in the columns' footprint (column.bytes)
}

// survives reports whether v is live once the whole batch has applied.
func (e *batchEdits) survives(v NodeID) bool { return e.ng.Alive(v) }

// applyPlan executes a validated plan: the copy-on-write merge, one phase
// per structure of the frozen layout. Each phase starts from the base
// generation's structure and builds what the batch touches — with the
// builder Freeze uses where the layout may change, by patching a copy where
// it cannot — and shares the rest. Domains come after the indexes they
// probe, attribute rows after both; the derived tables last.
func applyPlan(p *batchPlan) (*Graph, *ApplyResult) {
	p.base.domainList() // force lazy v2 domains before sharing them
	e := newGeneration(p)
	e.mergeAdjacency()
	e.mergeBuckets()
	e.collectCells()
	e.mergeColumns()
	e.mergeIndexes()
	e.mergeDomains()
	e.forkRows()
	e.measure()
	e.patchDerived()
	e.res.Touched.ChunkBytes += e.chunkBytes()
	return e.ng, e.res
}

// measure derives the footprint and degree maxima from the base's: column
// bytes by the touched columns' change (mergeColumns), maxima from the
// rebuilt rows, walking them all only when one that held a maximum shrank.
func (e *batchEdits) measure() {
	base, ng := e.p.base, e.ng
	ng.mem = ng.indexStats(MemoryStats{ColumnBytes: base.mem.ColumnBytes + e.colBytes})
	ng.maxOutDeg = maxAfter(base.maxOutDeg, &base.out, &ng.out, e.dirty[0])
	ng.maxInDeg = maxAfter(base.maxInDeg, &base.in, &ng.in, e.dirty[1])
}

// maxAfter is maxRowLen of rows, a fork of base whose longest row held m
// and which differs from it in the dirty rows alone.
func maxAfter(m int, base, rows *Table[[]Edge], dirty []NodeID) int {
	out := m
	for _, v := range dirty {
		if int(v) < base.n && len(base.At(int(v))) == m && len(rows.At(int(v))) < m {
			return maxRowLen(rows)
		}
		out = max(out, len(rows.At(int(v))))
	}
	return out
}

// chunkBytes sums what the new generation's per-node tables hold apart
// from its base's.
func (e *batchEdits) chunkBytes() int64 {
	base, ng := e.p.base, e.ng
	b := ng.nodeLabels.freshBytes(&base.nodeLabels) + ng.dead.freshBytes(&base.dead) + ng.out.freshBytes(&base.out) +
		ng.in.freshBytes(&base.in) + ng.labelPos.freshBytes(&base.labelPos) + ng.sigOut.freshBytes(&base.sigOut) +
		ng.sigIn.freshBytes(&base.sigIn) + ng.outRuns.freshBytes(&base.outRuns) + ng.inRuns.freshBytes(&base.inRuns)
	for a := range ng.cols {
		c, bc := &ng.cols[a], &column{}
		if a < len(base.cols) {
			bc = &base.cols[a]
		}
		b += c.present.freshBytes(&bc.present) + c.nums.freshBytes(&bc.nums) + c.strs.freshBytes(&bc.strs) + c.bools.freshBytes(&bc.bools)
	}
	return b
}

// internShared interns s into a dictionary the new generation shares with
// its base (the first shared entries of table): read-only while nothing is
// added, copied on the first extension.
func internShared[ID ~int32](table *[]string, ids *map[string]ID, shared int, s string) {
	if _, ok := (*ids)[s]; ok {
		return
	}
	if len(*table) == shared {
		*table, *ids = slices.Clone(*table), maps.Clone(*ids)
	}
	(*ids)[s] = ID(len(*table))
	*table = append(*table, s)
}

// newGeneration starts the merge: the new graph's identity, its
// dictionaries, and its node slots with the batch's labels and tombstones.
func newGeneration(p *batchPlan) *batchEdits {
	base, n0, n := p.base, p.baseN(), p.newN()
	ng := &Graph{
		numEdges: base.numEdges,
		frozen:   true,
		version:  base.version + 1,
		lineage:  nextLineage(),
		backing:  base.backing,
		strTab:   base.strTab,
	}
	if ng.backing != nil {
		ng.backing.retain()
	}
	e := &batchEdits{
		p: p, ng: ng, words: (n + 63) / 64,
		res: &ApplyResult{Version: ng.version, AddedNodes: p.addIDs, NodesRemoved: len(p.removed)},
	}

	ng.labels, ng.labelIDs = base.labels, base.labelIDs
	ng.attrTable, ng.attrIDs = base.attrTable, base.attrIDs
	for _, label := range p.adds {
		internShared(&ng.labels, &ng.labelIDs, len(base.labels), label)
	}
	for _, label := range p.edgeLabels {
		internShared(&ng.labels, &ng.labelIDs, len(base.labels), label)
	}
	for _, w := range p.writes {
		internShared(&ng.attrTable, &ng.attrIDs, len(base.attrTable), w.name)
	}
	ng.attrNames = base.attrNames
	if len(ng.attrTable) > len(base.attrTable) {
		ng.attrNames = append([]string(nil), ng.attrTable...)
		sort.Strings(ng.attrNames)
	}

	ng.nodeLabels = base.nodeLabels.fork(n)
	for i, label := range p.adds {
		update(&ng.nodeLabels, n0+i, ng.labelIDs[label])
	}
	if ng.dead, ng.deadCount = base.dead, base.deadCount+len(p.removed); ng.deadCount > 0 {
		ng.dead = base.dead.fork(e.words)
	}
	for v := range p.removed {
		bitSet(&ng.dead, int(v))
		if int(v) < n0 {
			e.removedBase = append(e.removedBase, v)
		}
	}
	return e
}

// mergeAdjacency forks the row-header tables and rebuilds only the rows
// the batch touches, recording which.
func (e *batchEdits) mergeAdjacency() {
	p, base, ng, res := e.p, e.p.base, e.ng, e.res
	ng.out, ng.in = base.out.fork(p.newN()), base.in.fork(p.newN())

	// Every edit becomes a signed instance count on the rows of its
	// surviving endpoints, tallied into the result.
	out, in := make(map[NodeID]map[Edge]int), make(map[NodeID]map[Edge]int)
	bump := func(rows map[NodeID]map[Edge]int, v, to NodeID, l LabelID, n int) {
		if !e.survives(v) {
			return
		}
		if rows[v] == nil {
			rows[v] = make(map[Edge]int)
		}
		rows[v][Edge{To: to, Label: l}] += n
	}
	delta := func(from, to NodeID, l LabelID, n int) {
		bump(out, from, to, l, n)
		bump(in, to, from, l, n)
		res.EdgesAdded += max(n, 0)
		res.EdgesRemoved += max(-n, 0)
	}
	// The net churn only ever deletes instances that exist in the base row.
	for k, n := range p.net {
		if n != 0 {
			delta(k.from, k.to, ng.labelIDs[k.label], n)
		}
	}
	// RemoveNode cascade over base edges: the dead node's rows are cleared
	// and its instances leave every surviving neighbor's opposite row.
	for _, v := range e.removedBase {
		for _, ed := range base.Out(v) {
			delta(v, ed.To, ed.Label, -1)
		}
		for _, ed := range base.In(v) {
			if e.survives(ed.To) { // dead->dead edges were counted from the out side
				delta(ed.To, v, ed.Label, -1)
			}
		}
		*ng.out.mut(int(v)), *ng.in.mut(int(v)) = nil, nil
	}
	ng.numEdges += res.EdgesAdded - res.EdgesRemoved
	e.dirty = [2][]NodeID{slices.Clone(e.removedBase), slices.Clone(e.removedBase)}
	for v, d := range out {
		row := ng.out.mut(int(v))
		*row = mergeRow(*row, d)
		e.dirty[0] = append(e.dirty[0], v)
	}
	for v, d := range in {
		row := ng.in.mut(int(v))
		*row = mergeRow(*row, d)
		e.dirty[1] = append(e.dirty[1], v)
	}
	res.Touched.OutRows, res.Touched.InRows = len(out), len(in)
}

// mergeRow returns a fresh sorted row: the base row (nil for an added
// node) with the signed instance counts applied.
func mergeRow(row []Edge, delta map[Edge]int) []Edge {
	size := len(row)
	for _, n := range delta {
		size += n
	}
	nr := make([]Edge, 0, size)
	for _, ed := range row {
		if delta[ed] < 0 {
			delta[ed]++
		} else {
			nr = append(nr, ed)
		}
	}
	for ed, n := range delta {
		for ; n > 0; n-- {
			nr = append(nr, ed)
		}
	}
	sortEdges(nr)
	return nr
}

// mergeBuckets rebuilds the label buckets whose membership changed.
// Buckets stay in ascending NodeID order (batch-added IDs are all greater
// than every base ID).
func (e *batchEdits) mergeBuckets() {
	p, base, ng := e.p, e.p.base, e.ng
	e.touchedLabels = make(map[LabelID]bool)
	e.addsByLabel = make(map[LabelID][]NodeID)
	for _, v := range e.removedBase {
		e.touchedLabels[base.NodeLabelID(v)] = true
	}
	for _, id := range p.addIDs {
		if e.survives(id) {
			l := ng.NodeLabelID(id)
			e.touchedLabels[l] = true
			e.addsByLabel[l] = append(e.addsByLabel[l], id)
		}
	}
	e.res.Touched.LabelsReranked = len(e.touchedLabels)
	ng.byLabel = maps.Clone(base.byLabel)
	for l := range e.touchedLabels {
		old := base.byLabel[l]
		nb := make([]NodeID, 0, len(old)+len(e.addsByLabel[l]))
		for _, v := range old {
			if e.survives(v) {
				nb = append(nb, v)
			}
		}
		if nb = append(nb, e.addsByLabel[l]...); len(nb) > 0 {
			ng.byLabel[l] = nb
		} else {
			delete(ng.byLabel, l)
		}
	}
}

// collectCells restates the batch per attribute: the writes to nodes that
// survive it, in op order (a later write wins), and a Null edit for every
// base cell of a removed node.
func (e *batchEdits) collectCells() {
	base, ng := e.p.base, e.ng
	e.cells = make([][]attrWrite, len(ng.attrTable))
	for _, w := range e.p.writes {
		if e.survives(w.node) {
			a := ng.attrIDs[w.name]
			e.cells[a] = append(e.cells[a], w)
		}
	}
	for _, v := range e.removedBase {
		for a := range base.cols {
			if base.cols[a].has(v) {
				e.cells[a] = append(e.cells[a], attrWrite{node: v})
			}
		}
	}
	for a, edits := range e.cells {
		sort.SliceStable(edits, func(i, j int) bool { return edits[i].node < edits[j].node })
		last := edits[:0]
		for i, ed := range edits {
			if i+1 == len(edits) || edits[i+1].node != ed.node {
				last = append(last, ed)
			}
		}
		e.cells[a] = last
	}
}

// eachCell calls fn for every cell attribute a holds in the new
// generation: the base column's cells the batch does not edit (walking the
// presence bitmap, the sorted edits alongside), then the non-Null edits.
func (e *batchEdits) eachCell(a AttrID, fn func(v NodeID, val Value)) {
	if int(a) < len(e.p.base.cols) {
		c, edits := &e.p.base.cols[a], e.cells[a]
		for w := 0; w < c.present.n; w++ {
			for word := c.present.At(w); word != 0; word &= word - 1 {
				v := NodeID(w<<6 + bits.TrailingZeros64(word))
				for len(edits) > 0 && edits[0].node < v {
					edits = edits[1:]
				}
				if len(edits) == 0 || edits[0].node != v {
					fn(v, c.value(v))
				}
			}
		}
	}
	for _, ed := range e.cells[a] {
		if !ed.val.IsNull() {
			fn(ed.node, ed.val)
		}
	}
}

// mergeColumns produces every touched column. One whose layout the edits
// cannot change — a uniform typed array, every written value of its kind, a
// cell left when they are done — is a copy of the base's bitmap and array
// with the edited cells cleared and put. Any other (mixed, string refs of a
// snapshot, a foreign kind written, emptied, new) goes through the column
// builder over its surviving cells (note, alloc, put), so either way the
// result carries exactly the layout Freeze would produce. Untouched columns
// are shared, their presence bitmap lengthened when the slot count crossed a
// word boundary.
func (e *batchEdits) mergeColumns() {
	base, ng, n := e.p.base, e.ng, e.p.newN()
	ng.cols = slices.Concat(base.cols, make([]column, len(ng.attrTable)-len(base.cols)))
	ng.rows = make([]rowSlot, len(ng.cols))
	for a := range ng.cols {
		c, edits := &ng.cols[a], e.cells[a]
		was := c.fixedBytes()
		switch {
		case len(edits) == 0:
			if c.present.n < e.words {
				c.present = c.present.fork(e.words)
			}
		case c.keepsLayout(edits):
			c.present = c.present.fork(e.words)
			switch {
			case c.nums.n > 0:
				c.nums = c.nums.fork(n)
			case c.strs.n > 0:
				c.strs = c.strs.fork(n)
			default:
				c.bools = c.bools.fork(e.words)
			}
			for _, ed := range edits {
				if c.strs.n > 0 {
					e.colBytes -= int64(len(c.strs.At(int(ed.node))))
				}
				c.unset(int(ed.node))
				if !ed.val.IsNull() {
					c.note(int(ed.node), ed.val.Kind())
					c.put(int(ed.node), ed.val)
				}
				if c.strs.n > 0 {
					e.colBytes += int64(len(c.strs.At(int(ed.node))))
				}
			}
			e.res.Touched.ColumnsPatched++
		default:
			e.colBytes -= c.textBytes()
			*c = newColumn(e.words)
			e.eachCell(AttrID(a), func(v NodeID, val Value) { c.note(int(v), val.Kind()) })
			c.alloc(n)
			e.eachCell(AttrID(a), func(v NodeID, val Value) { c.put(int(v), val) })
			e.colBytes += c.textBytes()
			e.res.Touched.ColumnsRebuilt++
		}
		e.colBytes += c.fixedBytes() - was
	}
}

// mergeIndexes re-merges the touched permutation indexes. Adds join every
// index of their label and removals leave all of them, so a touched label
// touches all its indexes; an edit touches the one pair it lands on (and
// may create it). Untouched pairs are shared.
func (e *batchEdits) mergeIndexes() {
	base, ng, n0 := e.p.base, e.ng, NodeID(e.p.baseN())
	e.touchedPairs = make(map[labelAttr]bool)
	for k := range base.indexes {
		if e.touchedLabels[k.label] {
			e.touchedPairs[k] = true
		}
	}
	for a, edits := range e.cells {
		for _, ed := range edits {
			if e.survives(ed.node) {
				e.touchedPairs[labelAttr{ng.NodeLabelID(ed.node), AttrID(a)}] = true
			}
		}
	}
	e.res.Touched.IndexesMerged = len(e.touchedPairs)
	ng.indexes = maps.Clone(base.indexes)
	for k := range e.touchedPairs {
		// gone lists the base bucket members that leave the permutation: the
		// removed ones and the attribute's edited ones; moved the members
		// whose place is found again: the edited ones that survive, then the
		// label's added nodes.
		var gone, moved []NodeID
		for _, v := range e.removedBase {
			if base.NodeLabelID(v) == k.label {
				gone = append(gone, v)
			}
		}
		for _, ed := range e.cells[k.attr] {
			if ed.node < n0 && base.NodeLabelID(ed.node) == k.label {
				gone = append(gone, ed.node)
				if e.survives(ed.node) {
					moved = append(moved, ed.node)
				}
			}
		}
		moved = append(moved, e.addsByLabel[k.label]...)
		if perm := mergeIndex(ng, base, k, gone, moved); perm != nil {
			ng.indexes[k] = perm
		} else {
			delete(ng.indexes, k)
		}
	}
}

// mergeIndex produces ng's permutation for one touched (label, attr) pair
// from base's, which the base column orders: the gone nodes leave it, found
// by binary search (untouched values didn't move, so the rest stays
// sorted), and each of the moved bucket members, in sorted order, is placed
// by binary search — permIndex.merge copies only the pieces a change lands
// in. Returns nil when the attribute no longer occurs on any bucket node
// (the index is dropped, as a fresh Freeze would).
func mergeIndex(ng, base *Graph, k labelAttr, gone, moved []NodeID) *permIndex {
	c, bucket, old := &ng.cols[k.attr], ng.byLabel[k.label], base.indexes[k]
	if !c.occursOn(bucket) {
		return nil
	}
	if old == nil {
		return &permIndex{flat: sortedPerm(c, bucket)}
	}
	bc, at := &base.cols[k.attr], make([]int, len(gone))
	for i, v := range gone {
		at[i] = old.search(func(u NodeID) bool { return !bc.less(u, v) })
	}
	slices.Sort(at)
	return old.merge(slices.Compact(at), sortedPerm(c, moved), c.less)
}

// mergeDomains maintains the active domain of every touched attribute: the
// base domain, plus the batch's written values it lacks, minus the
// overwritten or cleared values that no node holds any more. Every live
// holder of a value is listed in the permutation index of its (label,
// attribute), so a value is gone exactly when an equality probe comes back
// empty on every index of the attribute in the new generation. Untouched
// and unchanged domains are shared.
func (e *batchEdits) mergeDomains() {
	base, ng, n0 := e.p.base, e.ng, NodeID(e.p.baseN())
	ng.domains = slices.Concat(base.domains, make([][]Value, len(ng.attrTable)-len(base.domains)))
	for a, edits := range e.cells {
		if len(edits) == 0 {
			continue
		}
		var written, lost []Value
		for _, ed := range edits {
			if !ed.val.IsNull() {
				written = append(written, ed.val)
			}
			if a < len(base.cols) && ed.node < n0 && base.cols[a].has(ed.node) {
				lost = append(lost, base.cols[a].value(ed.node))
			}
		}
		dom := ng.domains[a]
		find := func(x Value) (int, bool) { return slices.BinarySearchFunc(dom, x, Value.Compare) }
		written, lost = sortDistinct(written), sortDistinct(lost)
		added, dropped := written[:0], lost[:0]
		for _, x := range written {
			if _, ok := find(x); !ok {
				added = append(added, x)
			}
		}
		for _, x := range lost {
			if ng.firstHolder(AttrID(a), x) == InvalidNode {
				dropped = append(dropped, x)
			}
		}
		if len(added)+len(dropped) == 0 {
			continue
		}
		e.res.Touched.DomainAdded += len(added)
		e.res.Touched.DomainDropped += len(dropped)
		// Both lists are sorted and disjoint (an added value is not in dom,
		// a dropped one is): walk them together, copying the stretches of
		// dom between their positions.
		merged, from := make([]Value, 0, len(dom)+len(added)-len(dropped)), 0
		for len(added) > 0 || len(dropped) > 0 {
			if len(added) == 0 || (len(dropped) > 0 && dropped[0].Compare(added[0]) < 0) {
				pos, _ := find(dropped[0])
				merged = append(merged, dom[from:pos]...)
				from, dropped = pos+1, dropped[1:]
			} else {
				pos, _ := find(added[0])
				merged = append(append(merged, dom[from:pos]...), added[0])
				from, added = pos, added[1:]
			}
		}
		ng.domains[a] = append(merged, dom[from:]...)
	}
}

// forkRows derives the row of every attribute whose row the base served
// (one nobody asked for, or still being built, is not carried forward). The
// fork shares the base row's chunks and re-ranks the batch's cells alone,
// after an old→new table if the batch moved the domain; the entries a cell
// gains or loses take their first holder from the indexes. A fork starts
// without the base's memo (AttrRow.Memo): it follows the base's domain.
func (e *batchEdits) forkRows() {
	base, ng, n0 := e.p.base, e.ng, e.p.baseN()
	for a := range base.rows {
		r0 := base.rows[a].row.Load()
		if r0 == nil {
			continue
		}
		dom0, dom := base.domains[a], ng.domains[a]
		r := &AttrRow{IDs: r0.IDs.fork(e.p.newN()), First: r0.First, Held: r0.Held}
		if len(e.cells[a]) > 0 {
			r.First = slices.Clone(r0.First)
		}
		for v := n0; v < r.IDs.n; v++ {
			update(&r.IDs, v, NoValue)
		}
		to := func(id int32) int32 { return id }
		if len(dom0) != len(dom) || (len(dom) > 0 && &dom0[0] != &dom[0]) {
			remap := make([]int32, len(dom0)+1) // by old entry + 1; NoValue once dropped
			remap[0], r.First = NoValue, make([]NodeID, len(dom))
			for i, x := range dom0 {
				j, ok := slices.BinarySearchFunc(dom, x, Value.Compare)
				if remap[i+1] = NoValue; ok {
					remap[i+1], r.First[j] = int32(j), r0.First[i]
				}
			}
			to = func(id int32) int32 { return remap[id+1] }
			for v := 0; v < n0; v++ {
				update(&r.IDs, v, to(r.IDs.At(v)))
			}
			e.res.Touched.RowsRemapped++
		}
		for _, ed := range e.cells[a] {
			was, now := NoValue, NoValue
			if int(ed.node) < n0 {
				if was = r0.IDs.At(int(ed.node)); was != NoValue {
					r.Held--
				}
			}
			if !ed.val.IsNull() {
				i, _ := slices.BinarySearchFunc(dom, ng.cols[a].value(ed.node), Value.Compare)
				now, r.Held = int32(i), r.Held+1
			}
			update(&r.IDs, int(ed.node), now)
			for _, i := range []int32{to(was), now} {
				if i != NoValue {
					r.First[i] = ng.firstHolder(AttrID(a), dom[i])
				}
			}
		}
		ng.rows[a].fork = r
		e.res.Touched.RowsForked++
		e.res.Touched.ChunkBytes += r.IDs.freshBytes(&r0.IDs)
	}
}

// firstHolder returns the lowest live node carrying value x for attribute a
// (InvalidNode when none does): the least first node of an equality probe on
// each of the attribute's permutation indexes, which order ties by node.
func (g *Graph) firstHolder(a AttrID, x Value) NodeID {
	first := InvalidNode
	for k, perm := range g.indexes {
		if k.attr == a {
			ix := SortedIndex{col: &g.cols[a], perm: perm}
			if lo, hi := ix.Range(OpEQ, x); lo < hi && (first == InvalidNode || ix.At(lo) < first) {
				first = ix.At(lo)
			}
		}
	}
	return first
}

// patchDerived is the derived tables' touched-rows pass: forks of the
// base's tables, re-derived — by the kernels buildDerived loops over — for
// the buckets whose membership changed, the removed slots and the rows
// mergeAdjacency rebuilt (an added node's rows are among those, or empty).
// The kernels write only the entries that change, so a chunk no changed
// entry lands in stays shared. The run tables' row width is a property of
// the label dictionary and the slot count; when the batch moves it (a new
// label, the first node, the cap crossed) no base row can be kept and
// every row is rebuilt.
func (e *batchEdits) patchDerived() {
	base, ng, n := e.p.base, e.ng, e.p.newN()
	if runTableStride(n, len(ng.labels)) != base.outRuns.stride {
		ng.buildDerived()
		e.res.Touched.DerivedRebuilt = true
		return
	}
	ng.labelPos, ng.sigOut, ng.sigIn = base.labelPos.fork(n), base.sigOut.fork(n), base.sigIn.fork(n)
	ng.outRuns, ng.inRuns = base.outRuns.fork(n), base.inRuns.fork(n)
	for l := range e.touchedLabels {
		ng.rankBucket(l)
	}
	for v := range e.p.removed {
		update(&ng.labelPos, int(v), deadLabelPos)
	}
	for dir, rows := range e.dirty {
		for _, v := range rows {
			ng.deriveRow(int(v), dir == 0)
		}
	}
}

// sortDistinct sorts vs under the Value total order and drops duplicates,
// in place.
func sortDistinct(vs []Value) []Value {
	slices.SortFunc(vs, Value.Compare)
	return slices.CompactFunc(vs, Value.Equal)
}

// computeDomain derives one column's active domain from its cells: Freeze's
// builder, and the oracle CheckInvariants holds the domains ApplyBatch
// maintains (mergeDomains) to. Uniform numeric and string columns dedup
// before sorting (distinct); bool columns check which of the two occur.
// Mixed, interned-ref, and NaN-bearing columns take the generic Value sort,
// which orders NaN first and equal to itself.
func computeDomain(c *column, n int) []Value {
	switch {
	case c.vals != nil || c.refs != nil:
		// generic below
	case c.nums.n > 0:
		if dom, ok := distinct(c, n, c.nums.At, Num); ok {
			return dom
		}
	case c.strs.n > 0:
		dom, _ := distinct(c, n, c.strs.At, Str)
		return dom
	case c.bools.n > 0:
		var out []Value
		for _, b := range []bool{false, true} {
			for i := 0; i < n; i++ {
				if c.has(NodeID(i)) && bitGet(&c.bools, i) == b {
					out = append(out, Bool(b))
					break
				}
			}
		}
		return out
	}
	vs := make([]Value, 0, c.count)
	for i := 0; i < n; i++ {
		if c.has(NodeID(i)) {
			vs = append(vs, c.value(NodeID(i)))
		}
	}
	return sortDistinct(vs)
}

// distinct is a uniform column's domain by hashing its values first —
// domains are usually tiny relative to the column, so O(count) + O(d·log d)
// replaces the O(count·log count) Value sort, in the same order within one
// kind. It fails on a NaN, which never equals a map key.
func distinct[K float64 | string](c *column, n int, at func(int) K, box func(K) Value) ([]Value, bool) {
	seen := make(map[K]struct{}, 64)
	for i := 0; i < n; i++ {
		if c.has(NodeID(i)) {
			k := at(i)
			if k != k {
				return nil, false
			}
			seen[k] = struct{}{}
		}
	}
	keys := make([]K, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := make([]Value, len(keys))
	for i, k := range keys {
		out[i] = box(k)
	}
	return out, true
}

// Tombstones returns the tombstoned NodeIDs in ascending order (nil when
// the graph has none).
func (g *Graph) Tombstones() []NodeID {
	if g.deadCount == 0 {
		return nil
	}
	out := make([]NodeID, 0, g.deadCount)
	for w := 0; w < g.dead.n; w++ {
		for word := g.dead.At(w); word != 0; word &= word - 1 {
			out = append(out, NodeID(w<<6+bits.TrailingZeros64(word)))
		}
	}
	return out
}
