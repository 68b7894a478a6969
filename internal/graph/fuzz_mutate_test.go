package graph

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// The fuzz script: how FuzzMutateEquivalence reads bytes as mutation
// batches. fuzzScript decodes, fuzzEncode is its inverse for batches written
// in the script's alphabet (patchCases are; they seed the corpus), and
// TestFuzzEncodeRoundTrip keeps the two from drifting apart.
var (
	// Kept name-sorted: the wire codec canonicalizes attrs by name, and the
	// harness compares round-tripped batches verbatim.
	fuzzAttrs   = []string{"gender", "k0", "k1", "name", "score"}
	fuzzLabels  = []string{"Person", "Org", "Tag"}
	fuzzELabels = []string{"recommend", "worksAt", "x"}
)

const (
	fuzzAddNode = iota
	fuzzRemoveNode
	fuzzAddEdge
	_
	fuzzRemoveEdge
	fuzzSetAttr
	_
	fuzzFlush
	fuzzCompact
	fuzzSteps // the op byte is read modulo this

	fuzzMaxBatch = 12 // a batch this long is flushed unasked
)

func fuzzVal(b byte) Value {
	switch b % 9 {
	case 0:
		return Null
	case 1:
		return Str("12") // lossy if re-parsed: must stay a string
	case 2:
		return Str("true")
	case 3:
		return Bool(b&0x80 != 0)
	case 4:
		return Num(float64(b) / 8)
	case 5:
		return Str("")
	case 6:
		return Int(int64(b % 16))
	case 7:
		return Num(math.NaN())
	default:
		return Num(math.Copysign(0, -1))
	}
}

// fuzzScript decodes data, calling flush with every completed batch and
// compact where the script asks for one. nodes reports the node slots
// committed so far; NodeIDs are read modulo it (plus the two out-of-range
// neighbours), so a batch can reach its own first added node.
func fuzzScript(data []byte, nodes func() int, flush func([]Mutation), compact func()) {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	pickNode := func() NodeID { return NodeID(int(next())%(nodes()+2)) - 1 }
	var batch []Mutation
	emit := func() {
		if len(batch) > 0 {
			flush(batch)
		}
		batch = nil
	}
	for steps := 0; pos < len(data) && steps < 128; steps++ {
		switch next() % fuzzSteps {
		case fuzzAddNode:
			if nodes() < 200 {
				var attrs []AttrPair
				sel := next()
				for i, name := range fuzzAttrs {
					if sel&(1<<i) != 0 {
						attrs = append(attrs, AttrPair{Name: name, Value: fuzzVal(next())})
					}
				}
				batch = append(batch, Mutation{Op: MutAddNode, Label: fuzzLabels[int(next())%len(fuzzLabels)], Attrs: attrs})
			}
		case fuzzRemoveNode:
			batch = append(batch, Mutation{Op: MutRemoveNode, Node: pickNode()})
		case fuzzAddEdge, fuzzAddEdge + 1:
			batch = append(batch, Mutation{Op: MutAddEdge, From: pickNode(), To: pickNode(), Label: fuzzELabels[int(next())%len(fuzzELabels)]})
		case fuzzRemoveEdge:
			batch = append(batch, Mutation{Op: MutRemoveEdge, From: pickNode(), To: pickNode(), Label: fuzzELabels[int(next())%len(fuzzELabels)]})
		case fuzzSetAttr, fuzzSetAttr + 1:
			batch = append(batch, Mutation{Op: MutSetAttr, Node: pickNode(), Attr: fuzzAttrs[int(next())%len(fuzzAttrs)], Value: fuzzVal(next())})
		case fuzzFlush:
			emit()
		case fuzzCompact:
			emit()
			compact()
		}
		if len(batch) >= fuzzMaxBatch {
			emit()
		}
	}
	emit()
}

// fuzzEncode writes valid batches over fuzzSeedGraph as a fuzz script. It
// panics on what the alphabet cannot say: a foreign label, attribute or
// value, a batch of fuzzMaxBatch ops or more, or a reference to an added
// node other than the batch's first.
func fuzzEncode(batches [][]Mutation) []byte {
	index := func(names []string, s string) byte {
		i := slices.Index(names, s)
		if i < 0 {
			panic(fmt.Sprintf("fuzzEncode: %q is not in %v", s, names))
		}
		return byte(i)
	}
	val := func(v Value) byte {
		for b := 0; b < 256; b++ {
			if w := fuzzVal(byte(b)); w.Kind() == v.Kind() && w.Equal(v) && math.Signbit(w.Float()) == math.Signbit(v.Float()) {
				return byte(b)
			}
		}
		panic(fmt.Sprintf("fuzzEncode: no byte decodes to %v", v))
	}
	nodes := fuzzSeedGraph().NumNodes()
	var out []byte
	for _, batch := range batches {
		if len(batch) >= fuzzMaxBatch {
			panic("fuzzEncode: batch too long")
		}
		node := func(v NodeID) byte {
			if int(v) > nodes {
				panic(fmt.Sprintf("fuzzEncode: node %d is out of a batch's reach over %d slots", v, nodes))
			}
			return byte(v + 1)
		}
		added := 0
		for _, m := range batch {
			switch m.Op {
			case MutAddNode:
				var sel byte
				vals := make([]byte, 0, len(m.Attrs))
				for _, kv := range m.Attrs {
					sel |= 1 << index(fuzzAttrs, kv.Name)
					vals = append(vals, val(kv.Value))
				}
				out = append(append(append(out, fuzzAddNode, sel), vals...), index(fuzzLabels, m.Label))
				added++
			case MutRemoveNode:
				out = append(out, fuzzRemoveNode, node(m.Node))
			case MutAddEdge:
				out = append(out, fuzzAddEdge, node(m.From), node(m.To), index(fuzzELabels, m.Label))
			case MutRemoveEdge:
				out = append(out, fuzzRemoveEdge, node(m.From), node(m.To), index(fuzzELabels, m.Label))
			case MutSetAttr:
				out = append(out, fuzzSetAttr, node(m.Node), index(fuzzAttrs, m.Attr), val(m.Value))
			}
		}
		out = append(out, fuzzFlush)
		nodes += added
	}
	return out
}

// TestFuzzEncodeRoundTrip: every patch case's script decodes to its batches.
func TestFuzzEncodeRoundTrip(t *testing.T) {
	for _, c := range patchCases {
		nodes, i := fuzzSeedGraph().NumNodes(), 0
		fuzzScript(fuzzEncode(c.batches), func() int { return nodes }, func(batch []Mutation) {
			if i >= len(c.batches) || !mutationsEqual(batch, c.batches[i]) {
				t.Fatalf("%s: batch %d decodes to %+v", c.name, i, batch)
			}
			for _, m := range batch {
				if m.Op == MutAddNode {
					nodes++
				}
			}
			i++
		}, func() { t.Fatalf("%s: script compacts", c.name) })
		if i != len(c.batches) {
			t.Fatalf("%s: %d of %d batches decoded", c.name, i, len(c.batches))
		}
	}
}

// chunkSeed grows fuzzSeedGraph to n node slots, then writes a cell of the
// last node, adds an edge to it and removes the node before it — edits on
// both sides of a chunk boundary when n is near a multiple of chunkLen.
func chunkSeed(n int) (batches [][]Mutation) {
	for nodes := fuzzSeedGraph().NumNodes(); nodes < n; {
		var b []Mutation
		for ; nodes < n && len(b) < fuzzMaxBatch-1; nodes++ {
			b = append(b, addP("Tag"))
		}
		batches = append(batches, b)
	}
	last := NodeID(n - 1)
	return append(batches, []Mutation{set(last, "score", Int(3)), {Op: MutAddEdge, From: 0, To: last, Label: "recommend"}, {Op: MutRemoveNode, Node: last - 1}})
}

// FuzzMutateEquivalence drives a byte-decoded mutation stream through
// three parallel systems — the incremental merge (Live/ApplyBatch), the
// map-based oracle rebuilt via builder+Freeze, and a shadow Live fed only
// through the WAL codec — and asserts they never disagree: same
// accept/reject verdict per batch, equivalent observable state, intact
// internal invariants, faithful wire round-trips, and version-preserving
// compaction.
func FuzzMutateEquivalence(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02, 0x20, 0x13, 0x24, 0x85, 0x06, 0x37})
	f.Add([]byte{0x10, 0x11, 0x12, 0x93, 0x14, 0x15, 0x96, 0x17, 0x07, 0x07})
	f.Add([]byte{0x02, 0x42, 0x82, 0xc2, 0x03, 0x43, 0x83, 0xc3})
	f.Add([]byte{0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa})
	for _, c := range patchCases {
		f.Add(fuzzEncode(c.batches))
	}
	for _, n := range []int{chunkLen - 1, chunkLen, chunkLen + 1, 2*chunkLen + 1} {
		f.Add(fuzzEncode(chunkSeed(n)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		base := fuzzSeedGraph()
		l := NewLive(base)
		defer l.Close()
		shadow := NewLive(fuzzSeedGraph())
		defer shadow.Close()
		m := modelFrom(base)

		flush := func(batch []Mutation) {
			// Wire faithfulness: the encoded batch decodes back to an
			// equal batch (attrs are generated unique + name-sorted).
			wire, err := EncodeMutations(batch)
			if err != nil {
				t.Fatalf("encode: %v (%+v)", err, batch)
			}
			decoded, derr := DecodeMutations(wire)
			if derr != nil {
				// The only undecodable generated content is an out-of-range
				// NodeID — which the in-process path must reject as well.
				if err := m.applyBatch(batch); err == nil {
					t.Fatalf("oracle accepted a batch the wire codec rejects (%v): %+v", derr, batch)
				}
				if _, err := l.Apply(batch); err == nil {
					t.Fatalf("ApplyBatch accepted a batch the wire codec rejects (%v): %+v", derr, batch)
				}
				return
			}
			if !mutationsEqual(batch, decoded) {
				t.Fatalf("wire round trip changed the batch:\n in: %+v\nout: %+v", batch, decoded)
			}
			// Every other row is read, so the batch forks those (and
			// CheckInvariants holds each fork to a fresh build).
			for cur, a := l.Graph(), 0; a < cur.NumAttrs(); a++ {
				if (a+int(cur.Version()))%2 == 0 {
					cur.AttrRow(AttrID(a))
				}
			}
			modelErr := m.applyBatch(batch)
			_, applyErr := l.Apply(batch)
			_, shadowErr := shadow.Apply(decoded)
			if (modelErr == nil) != (applyErr == nil) || (applyErr == nil) != (shadowErr == nil) {
				t.Fatalf("verdicts disagree: oracle=%v apply=%v shadow=%v\nbatch: %+v", modelErr, applyErr, shadowErr, batch)
			}
			if applyErr == nil {
				// Every generation, not only the last: a later batch can
				// rebuild what an earlier one patched wrongly.
				checkAgainstModel(t, l.Graph(), m)
			}
		}
		compact := func() {
			v := l.Version()
			compacted, resurrected := l.Compact()
			if compacted.Version() != v {
				t.Fatalf("compaction changed version %d -> %d", v, compacted.Version())
			}
			if resurrected.HasTombstones() {
				t.Fatal("resurrected image has tombstones")
			}
		}
		fuzzScript(data, func() int { return len(m.nodes) }, flush, compact)
		if l.Version() != shadow.Version() {
			t.Fatalf("live %d vs shadow %d versions", l.Version(), shadow.Version())
		}
		if err := Equivalent(l.Graph(), shadow.Graph()); err != nil {
			t.Fatalf("live vs WAL-codec shadow: %v", err)
		}
		checkAgainstModel(t, l.Graph(), m)
	})
}
