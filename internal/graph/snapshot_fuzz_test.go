package graph

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzReadSnapshot hammers the binary snapshot decoder: truncated,
// bit-flipped, section-reordered and arbitrary inputs must produce an
// error, never a panic — and because every count is validated against the
// bytes that must back it, never an allocation out of proportion to the
// input. Anything the decoder accepts must re-encode and re-decode into
// the same frozen graph (the codec's round-trip contract), which also
// catches any accepted input that violates a frozen-graph invariant the
// encoder relies on.
func FuzzReadSnapshot(f *testing.F) {
	// Seeds: valid snapshots of graphs covering every column kind, plus
	// the mutation classes called out above so the corpus starts on the
	// interesting boundaries rather than waiting for the mutator to find
	// them.
	for _, gr := range []*Graph{
		fuzzSeedGraph(),
		snapshotTestGraph(f, 3, 25),
		func() *Graph { g := New(); g.Freeze(); return g }(),
	} {
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, gr); err != nil {
			f.Fatal(err)
		}
		valid := buf.Bytes()
		f.Add(valid)
		f.Add(valid[:len(valid)/2])   // truncated mid-payload
		f.Add(valid[:snapHeaderBase]) // header only
		flipped := bytes.Clone(valid) // bit flip in a payload
		flipped[len(flipped)-1] ^= 0x01
		f.Add(flipped)
		hdrFlip := bytes.Clone(valid) // bit flip in the section table
		hdrFlip[snapHeaderBase+5] ^= 0x80
		f.Add(hdrFlip)
		reordered := bytes.Clone(valid) // swap two section-table entries
		a := reordered[snapHeaderBase : snapHeaderBase+snapTableEntry]
		b := reordered[snapHeaderBase+snapTableEntry : snapHeaderBase+2*snapTableEntry]
		tmp := bytes.Clone(a)
		copy(a, b)
		copy(b, tmp)
		f.Add(reordered)
		misaligned := bytes.Clone(valid) // nudge a section offset off 8-alignment
		misaligned[snapHeaderBase+snapTableEntry+4]++
		f.Add(misaligned)
		forged := bytes.Clone(valid) // forge the MET2 node count sky-high
		forged[snapHeaderBase+snapTableEntry*len(snapSectionOrder)+5] = 0xff
		f.Add(forged)

		stale := bytes.Clone(valid) // other versions stop at the version gate
		binary.LittleEndian.PutUint32(stale[8:12], 1)
		f.Add(stale)
		f.Add(stale[:len(stale)*3/4])
	}
	f.Add([]byte(snapMagic))
	f.Add([]byte("not a snapshot at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted: the graph must be frozen and survive a write/read
		// cycle byte- and structure-identically.
		if !g.Frozen() {
			t.Fatal("ReadSnapshot returned an unfrozen graph")
		}
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, g); err != nil {
			t.Fatalf("re-encoding accepted snapshot: %v", err)
		}
		g2, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding re-encoded snapshot: %v", err)
		}
		assertGraphDeepEqual(t, g, g2)
	})
}
