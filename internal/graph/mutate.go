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
// structure — which label buckets, attribute columns and (label,
// attribute) permutations it touches, and with what. Everything a touched
// set does not name is shared with the base generation.
type batchEdits struct {
	p     *batchPlan
	ng    *Graph
	res   *ApplyResult
	words int // presence-bitmap width of the new generation
	// removedBase lists the removed nodes that exist in the base (a node
	// added and removed by the same batch leaves no trace).
	removedBase []NodeID

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
}

// survives reports whether v is live once the whole batch has applied.
func (e *batchEdits) survives(v NodeID) bool { return !bitGet(e.ng.dead, int(v)) }

// applyPlan executes a validated plan: the copy-on-write merge, one phase
// per structure of the frozen layout, each building what the batch touches
// with the builder Freeze uses and sharing the rest with the base.
func applyPlan(p *batchPlan) (*Graph, *ApplyResult) {
	p.base.domainList() // force lazy v2 domains before sharing them
	e := newGeneration(p)
	e.mergeAdjacency()
	e.mergeBuckets()
	e.collectCells()
	e.mergeColumns()
	e.mergeIndexes()
	e.ng.measure()
	e.ng.buildDerived()
	return e.ng, e.res
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
		lineage:  base.lineage,
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

	ng.nodeLabels = make([]LabelID, n)
	copy(ng.nodeLabels, base.nodeLabels)
	for i, label := range p.adds {
		ng.nodeLabels[n0+i] = ng.labelIDs[label]
	}
	ng.dead = make([]uint64, e.words)
	copy(ng.dead, base.dead)
	ng.deadCount = base.deadCount + len(p.removed)
	for v := range p.removed {
		bitSet(ng.dead, int(v))
		if int(v) < n0 {
			e.removedBase = append(e.removedBase, v)
		}
	}
	return e
}

// mergeAdjacency copies the row-header arrays and rebuilds only the rows
// the batch touches.
func (e *batchEdits) mergeAdjacency() {
	p, base, ng, res := e.p, e.p.base, e.ng, e.res
	ng.out = make([][]Edge, p.newN())
	copy(ng.out, base.out)
	ng.in = make([][]Edge, p.newN())
	copy(ng.in, base.in)

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
		for _, ed := range base.out[v] {
			delta(v, ed.To, ed.Label, -1)
		}
		for _, ed := range base.in[v] {
			if e.survives(ed.To) { // dead->dead edges were counted from the out side
				delta(ed.To, v, ed.Label, -1)
			}
		}
		ng.out[v], ng.in[v] = nil, nil
	}
	ng.numEdges += res.EdgesAdded - res.EdgesRemoved
	for v, d := range out {
		ng.out[v] = mergeRow(ng.out[v], d)
	}
	for v, d := range in {
		ng.in[v] = mergeRow(ng.in[v], d)
	}
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
		e.touchedLabels[base.nodeLabels[v]] = true
	}
	for _, id := range p.addIDs {
		if e.survives(id) {
			l := ng.nodeLabels[id]
			e.touchedLabels[l] = true
			e.addsByLabel[l] = append(e.addsByLabel[l], id)
		}
	}
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
		for w, word := range c.present {
			for ; word != 0; word &= word - 1 {
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

// mergeColumns rebuilds every touched column and its active domain through
// the column builder (note, alloc, put — so the result carries exactly the
// kind-uniformity layout Freeze would produce); untouched columns are
// shared, their presence bitmap extended when the slot count crossed a
// word boundary.
func (e *batchEdits) mergeColumns() {
	base, ng, n := e.p.base, e.ng, e.p.newN()
	ng.cols = make([]column, len(ng.attrTable))
	copy(ng.cols, base.cols)
	ng.domains = make([][]Value, len(ng.attrTable))
	copy(ng.domains, base.domains)
	for a := range ng.cols {
		c := &ng.cols[a]
		if len(e.cells[a]) > 0 {
			*c = newColumn(e.words)
			e.eachCell(AttrID(a), func(v NodeID, val Value) { c.note(int(v), val.Kind()) })
			c.alloc(n)
			e.eachCell(AttrID(a), func(v NodeID, val Value) { c.put(int(v), val) })
			ng.domains[a] = computeDomain(c, n)
		} else if len(c.present) < e.words {
			present := make([]uint64, e.words)
			copy(present, c.present)
			c.present = present
		}
	}
}

// mergeIndexes re-merges the touched permutation indexes. Adds join every
// index of their label and removals leave all of them, so a touched label
// touches all its indexes; an edit touches the one pair it lands on (and
// may create it). Untouched pairs are shared.
func (e *batchEdits) mergeIndexes() {
	base, ng := e.p.base, e.ng
	e.touchedPairs = make(map[labelAttr]bool)
	for k := range base.indexes {
		if e.touchedLabels[k.label] {
			e.touchedPairs[k] = true
		}
	}
	for a, edits := range e.cells {
		for _, ed := range edits {
			if e.survives(ed.node) {
				e.touchedPairs[labelAttr{ng.nodeLabels[ed.node], AttrID(a)}] = true
			}
		}
	}
	ng.indexes = maps.Clone(base.indexes)
	for k := range e.touchedPairs {
		// changed marks the nodes whose rank may have moved: the attribute's
		// edited nodes and the label's added nodes.
		changed := make([]uint64, e.words)
		for _, ed := range e.cells[k.attr] {
			bitSet(changed, int(ed.node))
		}
		for _, v := range e.addsByLabel[k.label] {
			bitSet(changed, int(v))
		}
		if perm := mergeIndex(ng, base.indexes[k], ng.byLabel[k.label], k.attr, changed); perm != nil {
			ng.indexes[k] = perm
		} else {
			delete(ng.indexes, k)
		}
	}
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
// bucket members. Returns nil when the attribute no longer occurs on any
// bucket node (the index is dropped, as a fresh Freeze would).
func mergeIndex(g *Graph, oldPerm, bucket []NodeID, a AttrID, changed []uint64) []NodeID {
	c := &g.cols[a]
	if !c.occursOn(bucket) {
		return nil
	}
	if oldPerm == nil {
		return sortedPerm(c, bucket)
	}
	var tail []NodeID
	for _, v := range bucket {
		if bitGet(changed, int(v)) {
			tail = append(tail, v)
		}
	}
	tail = sortedPerm(c, tail)
	perm := make([]NodeID, 0, len(bucket))
	for _, v := range oldPerm {
		if !g.Alive(v) || bitGet(changed, int(v)) {
			continue
		}
		for len(tail) > 0 && c.less(tail[0], v) {
			perm = append(perm, tail[0])
			tail = tail[1:]
		}
		perm = append(perm, v)
	}
	return append(perm, tail...)
}

// Tombstones returns the tombstoned NodeIDs in ascending order (nil when
// the graph has none).
func (g *Graph) Tombstones() []NodeID {
	if g.deadCount == 0 {
		return nil
	}
	out := make([]NodeID, 0, g.deadCount)
	Bitset{words: g.dead}.ForEach(func(i int) { out = append(out, NodeID(i)) })
	return out
}
