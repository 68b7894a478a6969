package graph

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// The differential oracle for the mutation layer: Equivalent proves a
// mutated graph logically equal to a rebuild-from-scratch of the same
// content, and CheckInvariants proves its internal frozen representation
// self-consistent (every derived structure equal to what a fresh Freeze
// would derive). Together they are the "mutated ≡ rebuilt" guarantee the
// mutation differential and fuzz suites assert after every batch.

// Equivalent reports (as an error describing the first discrepancy, nil
// when none) whether two frozen graphs carry the same logical content:
// same live nodes with the same labels, attribute tuples, edges, label
// buckets, active domains, sorted permutation indexes and degree stats —
// compared modulo the intern dictionaries and modulo tombstoned slots.
// The i-th live node of a corresponds to the i-th live node of b; both
// buckets and permutation tie-orders are NodeID-ascending, so the
// monotone mapping preserves every order the matcher depends on.
func Equivalent(a, b *Graph) error {
	if !a.Frozen() || !b.Frozen() {
		return fmt.Errorf("equivalent: both graphs must be frozen")
	}
	if a.NumLive() != b.NumLive() {
		return fmt.Errorf("equivalent: %d live nodes vs %d", a.NumLive(), b.NumLive())
	}
	if a.NumEdges() != b.NumEdges() {
		return fmt.Errorf("equivalent: %d edges vs %d", a.NumEdges(), b.NumEdges())
	}
	aLive, bLive := liveNodes(a), liveNodes(b)
	toB := make(map[NodeID]NodeID, len(aLive))
	for i, va := range aLive {
		toB[va] = bLive[i]
	}
	for i, va := range aLive {
		vb := bLive[i]
		if a.Label(va) != b.Label(vb) {
			return fmt.Errorf("equivalent: node %d/%d: label %q vs %q", va, vb, a.Label(va), b.Label(vb))
		}
		if err := equalAttrPairs(a.AttrPairs(va), b.AttrPairs(vb)); err != nil {
			return fmt.Errorf("equivalent: node %d/%d: %v", va, vb, err)
		}
		for _, outgoing := range []bool{true, false} {
			ea := mappedEdges(a, va, outgoing, toB)
			eb := mappedEdges(b, vb, outgoing, nil)
			dir := "out"
			if !outgoing {
				dir = "in"
			}
			if len(ea) != len(eb) {
				return fmt.Errorf("equivalent: node %d/%d: %d %s-edges vs %d", va, vb, len(ea), dir, len(eb))
			}
			for k := range ea {
				if ea[k] != eb[k] {
					return fmt.Errorf("equivalent: node %d/%d: %s-edge %d: %v vs %v", va, vb, dir, k, ea[k], eb[k])
				}
			}
		}
	}
	// Buckets, per label string, must map element for element: both sides
	// keep them NodeID-ascending.
	for _, name := range unionStrings(a.NodeLabels(), b.NodeLabels()) {
		ba := a.NodesByLabel(name)
		bb := b.NodesByLabel(name)
		if len(ba) != len(bb) {
			return fmt.Errorf("equivalent: label %q: bucket size %d vs %d", name, len(ba), len(bb))
		}
		for i := range ba {
			if toB[ba[i]] != bb[i] {
				return fmt.Errorf("equivalent: label %q: bucket[%d] = %d maps to %d, want %d", name, i, ba[i], toB[ba[i]], bb[i])
			}
		}
	}
	// Active domains per attribute name (union: an attribute absent from
	// one dictionary must have an empty domain in the other).
	for _, name := range unionStrings(a.attrNames, b.attrNames) {
		da := a.ActiveDomain(name)
		db := b.ActiveDomain(name)
		if len(da) != len(db) {
			return fmt.Errorf("equivalent: attr %q: domain size %d vs %d", name, len(da), len(db))
		}
		for i := range da {
			if !da[i].Equal(db[i]) || da[i].Kind() != db[i].Kind() {
				return fmt.Errorf("equivalent: attr %q: domain[%d] %v vs %v", name, i, da[i], db[i])
			}
		}
	}
	// Permutation indexes: same (label, attr) pairs, same order after
	// mapping.
	if a.mem.Indexes != b.mem.Indexes {
		return fmt.Errorf("equivalent: %d permutation indexes vs %d", a.mem.Indexes, b.mem.Indexes)
	}
	for k, ia := range a.indexes {
		labelName, attrName := a.labels[k.label], a.attrTable[k.attr]
		lb, ab := b.LookupLabel(labelName), b.AttrIDOf(attrName)
		ib, ok := b.indexes[labelAttr{lb, ab}]
		if !ok {
			return fmt.Errorf("equivalent: index (%q, %q) missing from second graph", labelName, attrName)
		}
		pa, pb := ia.nodes(), ib.nodes()
		if len(pa) != len(pb) {
			return fmt.Errorf("equivalent: index (%q, %q): %d entries vs %d", labelName, attrName, len(pa), len(pb))
		}
		for i := range pa {
			if toB[pa[i]] != pb[i] {
				return fmt.Errorf("equivalent: index (%q, %q)[%d]: %d maps to %d, want %d",
					labelName, attrName, i, pa[i], toB[pa[i]], pb[i])
			}
		}
	}
	if a.maxOutDeg != b.maxOutDeg || a.maxInDeg != b.maxInDeg {
		return fmt.Errorf("equivalent: max degrees (%d,%d) vs (%d,%d)", a.maxOutDeg, a.maxInDeg, b.maxOutDeg, b.maxInDeg)
	}
	return nil
}

// mappedEdge is one adjacency entry in dictionary-free form.
type mappedEdge struct {
	Label string
	To    NodeID
}

func mappedEdges(g *Graph, v NodeID, outgoing bool, m map[NodeID]NodeID) []mappedEdge {
	row := g.Out(v)
	if !outgoing {
		row = g.In(v)
	}
	out := make([]mappedEdge, 0, len(row))
	for _, e := range row {
		to := e.To
		if m != nil {
			to = m[e.To]
		}
		out = append(out, mappedEdge{Label: g.labels[e.Label], To: to})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Label != out[j].Label {
			return out[i].Label < out[j].Label
		}
		return out[i].To < out[j].To
	})
	return out
}

func equalAttrPairs(pa, pb []AttrPair) error {
	if len(pa) != len(pb) {
		return fmt.Errorf("%d attributes vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i].Name != pb[i].Name {
			return fmt.Errorf("attr[%d] name %q vs %q", i, pa[i].Name, pb[i].Name)
		}
		if pa[i].Value.Kind() != pb[i].Value.Kind() || !pa[i].Value.Equal(pb[i].Value) {
			return fmt.Errorf("attr %q: %v (%v) vs %v (%v)", pa[i].Name,
				pa[i].Value, pa[i].Value.Kind(), pb[i].Value, pb[i].Value.Kind())
		}
	}
	return nil
}

func liveNodes(g *Graph) []NodeID {
	out := make([]NodeID, 0, g.NumLive())
	for v := 0; v < g.NumNodes(); v++ {
		if g.Alive(NodeID(v)) {
			out = append(out, NodeID(v))
		}
	}
	return out
}

func unionStrings(a, b []string) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var out []string
	for _, s := range a {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, s := range b {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// CheckInvariants verifies a frozen graph's internal representation
// against what a fresh Freeze would derive: bucket/index membership and
// order, presence bitmaps vs counts, kind uniformity, derived
// label-position/signature/run tables, degree maxima, domain recomputes
// and tombstone exclusion. It is O(|V|·|A| + |E| log |E|) and meant for
// tests and fuzzing, not production paths.
func CheckInvariants(g *Graph) error {
	if !g.Frozen() {
		return fmt.Errorf("invariants: graph not frozen")
	}
	n := g.NumNodes()
	if g.out.n != n || g.in.n != n {
		return fmt.Errorf("invariants: adjacency length %d/%d, want %d", g.out.n, g.in.n, n)
	}
	if g.labelPos.n != n || g.sigOut.n != n || g.sigIn.n != n {
		return fmt.Errorf("invariants: derived table lengths %d/%d/%d, want %d", g.labelPos.n, g.sigOut.n, g.sigIn.n, n)
	}
	// Tombstones.
	deadPop := 0
	g.dead.spans(func(ws []uint64) { deadPop += Bitset{words: ws}.Count() })
	if deadPop != g.deadCount {
		return fmt.Errorf("invariants: deadCount %d but bitmap holds %d", g.deadCount, deadPop)
	}
	for v := 0; v < n; v++ {
		if g.Alive(NodeID(v)) {
			continue
		}
		if g.OutDegree(NodeID(v)) != 0 || g.InDegree(NodeID(v)) != 0 {
			return fmt.Errorf("invariants: dead node %d still has edges", v)
		}
		if g.labelPos.At(v) != PackLabelPos(InvalidLabel, -1) {
			return fmt.Errorf("invariants: dead node %d labelPos not poisoned", v)
		}
		for a := range g.cols {
			if g.cols[a].has(NodeID(v)) {
				return fmt.Errorf("invariants: dead node %d present in column %q", v, g.attrTable[a])
			}
		}
	}
	// Buckets: ascending, label-consistent, exactly the live nodes.
	seen := make(map[NodeID]bool, n)
	for l, bucket := range g.byLabel {
		if len(bucket) == 0 {
			return fmt.Errorf("invariants: empty bucket for label %q", g.labels[l])
		}
		for i, v := range bucket {
			if i > 0 && bucket[i-1] >= v {
				return fmt.Errorf("invariants: bucket %q not ascending at %d", g.labels[l], i)
			}
			if !g.Alive(v) {
				return fmt.Errorf("invariants: dead node %d in bucket %q", v, g.labels[l])
			}
			if g.NodeLabelID(v) != l {
				return fmt.Errorf("invariants: node %d in bucket %q but labeled %q", v, g.labels[l], g.Label(v))
			}
			if g.PackedLabelPos(v) != PackLabelPos(l, int32(i)) {
				return fmt.Errorf("invariants: node %d labelPos mismatch", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != g.NumLive() {
		return fmt.Errorf("invariants: buckets cover %d nodes, want %d live", len(seen), g.NumLive())
	}
	// Adjacency: sorted rows, mirrored multisets, edge count, signatures.
	edges := 0
	type fullEdge struct {
		from, to NodeID
		label    LabelID
	}
	outSet := make(map[fullEdge]int)
	for v := 0; v < n; v++ {
		var sig uint64
		out, in := g.Out(NodeID(v)), g.In(NodeID(v))
		for i, e := range out {
			if i > 0 && (out[i-1].Label > e.Label || (out[i-1].Label == e.Label && out[i-1].To > e.To)) {
				return fmt.Errorf("invariants: out row %d not sorted", v)
			}
			if !g.Alive(e.To) {
				return fmt.Errorf("invariants: out edge %d->%d targets a dead node", v, e.To)
			}
			outSet[fullEdge{NodeID(v), e.To, e.Label}]++
			sig |= LabelSigBit(e.Label)
			edges++
		}
		if g.sigOut.At(v) != sig {
			return fmt.Errorf("invariants: node %d out signature stale", v)
		}
		sig = 0
		for i, e := range in {
			if i > 0 && (in[i-1].Label > e.Label || (in[i-1].Label == e.Label && in[i-1].To > e.To)) {
				return fmt.Errorf("invariants: in row %d not sorted", v)
			}
			outSet[fullEdge{e.To, NodeID(v), e.Label}]--
			sig |= LabelSigBit(e.Label)
		}
		if g.sigIn.At(v) != sig {
			return fmt.Errorf("invariants: node %d in signature stale", v)
		}
	}
	for k, c := range outSet {
		if c != 0 {
			return fmt.Errorf("invariants: edge %d->%d (%q) out/in mirror off by %d", k.from, k.to, g.labels[k.label], c)
		}
	}
	if edges != g.numEdges {
		return fmt.Errorf("invariants: numEdges %d but rows hold %d", g.numEdges, edges)
	}
	// The footprint and the degree maxima, which ApplyBatch derives by delta.
	mem, maxOut, maxIn := g.measured()
	if maxOut != g.maxOutDeg || maxIn != g.maxInDeg {
		return fmt.Errorf("invariants: max degrees (%d,%d) recorded (%d,%d)", maxOut, maxIn, g.maxOutDeg, g.maxInDeg)
	}
	if mem != g.mem {
		return fmt.Errorf("invariants: memory %+v recorded %+v", mem, g.mem)
	}
	// Run tables.
	for _, outgoing := range []bool{true, false} {
		runs, rows := g.RunStarts(outgoing), g.Adjacency(outgoing)
		if !runs.Valid() {
			continue
		}
		for v := 0; v < n; v++ {
			for l := 0; l < runs.stride-1; l++ {
				lo, hi := runs.Span(NodeID(v), LabelID(l))
				run := rows.At(v)[lo:hi]
				want := edgeRunSearch(rows.At(v), LabelID(l))
				if len(run) != len(want) || (len(run) > 0 && &run[0] != &want[0]) {
					return fmt.Errorf("invariants: run table (%d, label %d, out=%v) stale", v, l, outgoing)
				}
			}
		}
	}
	// Columns: presence counts, word width, kind uniformity.
	if len(g.cols) != len(g.attrTable) {
		return fmt.Errorf("invariants: %d columns for %d attributes", len(g.cols), len(g.attrTable))
	}
	words := (n + 63) / 64
	for a := range g.cols {
		c := &g.cols[a]
		if c.present.n < words {
			return fmt.Errorf("invariants: column %q presence bitmap too short", g.attrTable[a])
		}
		pop := 0
		c.present.spans(func(ws []uint64) { pop += Bitset{words: ws}.Count() })
		if pop != c.count {
			return fmt.Errorf("invariants: column %q count %d but bitmap holds %d", g.attrTable[a], c.count, pop)
		}
		typed := 0
		for _, set := range []bool{c.nums.n > 0, c.strs.n > 0, c.bools.n > 0, c.vals != nil, c.refs != nil} {
			if set {
				typed++
			}
		}
		if typed > 1 {
			return fmt.Errorf("invariants: column %q has %d value arrays", g.attrTable[a], typed)
		}
		kinds := 0 // bit k set: a value of Kind k occurs
		for v := 0; v < n; v++ {
			if !c.has(NodeID(v)) {
				// An absent slot holds no payload (the snapshot decoder
				// refuses one): a cleared cell is left as alloc made it.
				if (v < c.nums.n && math.Float64bits(c.nums.At(v)) != 0) || (v < c.strs.n && c.strs.At(v) != "") ||
					(v>>6 < c.bools.n && bitGet(&c.bools, v)) || (v < len(c.vals) && c.vals[v] != Null) {
					return fmt.Errorf("invariants: column %q keeps a payload at absent node %d", g.attrTable[a], v)
				}
				continue
			}
			k := c.value(NodeID(v)).Kind()
			if c.kind != KindNull && k != c.kind {
				return fmt.Errorf("invariants: column %q kind %v holds a %v at node %d", g.attrTable[a], c.kind, k, v)
			}
			kinds |= 1 << k
		}
		// The other direction: a column stored mixed really holds two kinds
		// (a builder that forgot to re-uniform it would change snapshot bytes).
		if c.kind == KindNull && bits.OnesCount(uint(kinds)) == 1 && kinds != 1<<KindNull {
			return fmt.Errorf("invariants: column %q stored mixed but holds one kind only", g.attrTable[a])
		}
	}
	// Domains match a recompute.
	doms := g.domainList()
	if len(doms) != len(g.cols) {
		return fmt.Errorf("invariants: %d domains for %d columns", len(doms), len(g.cols))
	}
	for a := range g.cols {
		want := computeDomain(&g.cols[a], n)
		if len(want) != len(doms[a]) {
			return fmt.Errorf("invariants: attr %q domain size %d, recompute %d", g.attrTable[a], len(doms[a]), len(want))
		}
		for i := range want {
			if !want[i].Equal(doms[a][i]) {
				return fmt.Errorf("invariants: attr %q domain[%d] %v, recompute %v", g.attrTable[a], i, doms[a][i], want[i])
			}
		}
	}
	// Indexes: exactly the occupied (label, attr) pairs, each a sorted
	// permutation of its bucket.
	wantPairs := 0
	for l, bucket := range g.byLabel {
		for a := range g.cols {
			occ := false
			for _, v := range bucket {
				if g.cols[a].has(v) {
					occ = true
					break
				}
			}
			if !occ {
				if _, ok := g.indexes[labelAttr{l, AttrID(a)}]; ok {
					return fmt.Errorf("invariants: index (%q, %q) exists but attribute absent from label", g.labels[l], g.attrTable[a])
				}
				continue
			}
			wantPairs++
			pi, ok := g.indexes[labelAttr{l, AttrID(a)}]
			if !ok {
				return fmt.Errorf("invariants: missing index (%q, %q)", g.labels[l], g.attrTable[a])
			}
			perm := pi.nodes()
			if len(perm) != len(bucket) {
				return fmt.Errorf("invariants: index (%q, %q) has %d entries for a %d-node bucket", g.labels[l], g.attrTable[a], len(perm), len(bucket))
			}
			c := &g.cols[a]
			inBucket := make(map[NodeID]bool, len(bucket))
			for _, v := range bucket {
				inBucket[v] = true
			}
			for i, v := range perm {
				if !inBucket[v] {
					return fmt.Errorf("invariants: index (%q, %q) holds non-bucket node %d", g.labels[l], g.attrTable[a], v)
				}
				if i > 0 {
					prev := perm[i-1]
					if cmp := c.value(prev).Compare(c.value(v)); cmp > 0 || (cmp == 0 && prev >= v) {
						return fmt.Errorf("invariants: index (%q, %q) out of order at %d", g.labels[l], g.attrTable[a], i)
					}
				}
			}
		}
	}
	if wantPairs != len(g.indexes) || g.mem.Indexes != len(g.indexes) {
		return fmt.Errorf("invariants: %d indexes, want %d (mem records %d)", len(g.indexes), wantPairs, g.mem.Indexes)
	}
	// Rows: every one served or forked equals a fresh build.
	for a := range g.rows {
		f := g.cols[a].row(doms[a], n)
		for _, r := range []*AttrRow{g.rows[a].row.Load(), g.rows[a].fork} {
			if r != nil && (r.Held != f.Held || !slices.Equal(r.First, f.First) || !slices.Equal(r.IDs.entries(), f.IDs.entries())) {
				return fmt.Errorf("invariants: attr %q row differs from a fresh build", g.attrTable[a])
			}
		}
	}
	return nil
}
