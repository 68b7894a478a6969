package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// writeSnapshotTemp writes g as a snapshot into a fresh temp file and
// returns the path.
func writeSnapshotTemp(t testing.TB, g *Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.fsnap")
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOpenSnapshotMappedDifferential: the three ways of obtaining a frozen
// graph — parse+Freeze, heap-decode of the snapshot, mapped open of the
// same file — must be indistinguishable through the whole read API,
// including bit-identical floats, NaN payloads, mixed-kind columns, sorted
// indexes and lazily-materialized strings and domains — and a batch forked
// from the mapped base, which points its full chunks into the mapping and
// copies each tail, must equal the same batch on the built graph.
func TestOpenSnapshotMappedDifferential(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		n    int
	}{{21, 0}, {22, 1}, {23, 64}, {24, 300}, {25, chunkLen - 1}, {26, chunkLen}, {27, chunkLen + 1}, {28, 2*chunkLen + 1}} {
		t.Run(fmt.Sprintf("seed%d_n%d", tc.seed, tc.n), func(t *testing.T) {
			g := snapshotTestGraph(t, tc.seed, tc.n)
			path := writeSnapshotTemp(t, g)

			heap, err := ReadSnapshotFile(path)
			if err != nil {
				t.Fatalf("ReadSnapshotFile: %v", err)
			}
			mapped, err := OpenSnapshotMapped(path)
			if err != nil {
				t.Fatalf("OpenSnapshotMapped: %v", err)
			}
			defer mapped.Close()
			if mmapSupported && !mapped.Mapped() {
				t.Fatal("OpenSnapshotMapped returned a heap graph on a mmap-capable platform")
			}
			if mapped.Mapped() && mapped.MappedBytes() == 0 {
				t.Fatal("mapped graph reports zero mapped bytes")
			}
			assertGraphDeepEqual(t, g, heap)
			assertGraphDeepEqual(t, g, mapped)
			assertGraphDeepEqual(t, heap, mapped)
			if tc.n < 2 {
				return
			}
			last, m := NodeID(tc.n-1), modelFrom(g)
			batch := []Mutation{set(last, "score", Int(1)), {Op: MutAddEdge, From: 0, To: last, Label: "knows"}, addP("Org")}
			got, _, err := ApplyBatch(mapped, batch)
			if err != nil || m.applyBatch(batch) != nil {
				t.Fatal(err)
			}
			defer got.Close()
			checkAgainstModel(t, got, m)
		})
	}
}

// TestLiveApplyCommit: the commit step runs once the batch has merged and
// before the generation becomes current; when it fails nothing changes —
// version, contents, op count — and the discarded generation gives back
// the reference it took on the mapped base. A batch that fails validation
// never reaches commit.
func TestLiveApplyCommit(t *testing.T) {
	m, err := OpenSnapshotMapped(writeSnapshotTemp(t, snapshotTestGraph(t, 31, 50)))
	if err != nil {
		t.Fatal(err)
	}
	l := NewLive(m)
	defer l.Close()
	batch := []Mutation{{Op: MutRemoveNode, Node: 3}}
	refs := m.mappedRefs()

	refuse := errors.New("log full")
	if _, err := l.ApplyCommit(batch, func() error { return refuse }); err != refuse {
		t.Fatalf("ApplyCommit error = %v, want the commit's own", err)
	}
	if l.Version() != 1 || !l.Graph().Alive(3) || l.OpsSinceCompact() != 0 || l.Graph() != m {
		t.Fatalf("refused commit changed the graph: v%d, alive=%v, ops=%d", l.Version(), l.Graph().Alive(3), l.OpsSinceCompact())
	}
	if got := m.mappedRefs(); got != refs {
		t.Fatalf("discarded generation leaked a backing reference: %d refs, want %d", got, refs)
	}
	called := false
	if _, err := l.ApplyCommit([]Mutation{{Op: MutRemoveNode, Node: 1 << 20}}, func() error { called = true; return nil }); err == nil || called {
		t.Fatalf("invalid batch: err=%v, commit called=%v", err, called)
	}

	res, err := l.ApplyCommit(batch, func() error {
		if l.cur != m {
			t.Error("generation current before commit returned")
		}
		return nil
	})
	if err != nil || res.Version != 2 || l.Version() != 2 || l.Graph().Alive(3) || l.OpsSinceCompact() != 1 {
		t.Fatalf("committed batch: res=%+v err=%v v%d alive=%v", res, err, l.Version(), l.Graph().Alive(3))
	}
}

// TestMappedRefCounting: Retain/Close pairs nest, the mapping survives
// until the last release, and over-release panics (a paired-call bug).
func TestMappedRefCounting(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	g := snapshotTestGraph(t, 31, 50)
	path := writeSnapshotTemp(t, g)
	m, err := OpenSnapshotMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.mappedRefs(); got != 1 {
		t.Fatalf("fresh mapped graph has %d refs, want 1", got)
	}
	m.Retain()
	m.Retain()
	if got := m.mappedRefs(); got != 3 {
		t.Fatalf("after two Retains: %d refs, want 3", got)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Still one ref: reads must still work.
	if m.NumNodes() != g.NumNodes() {
		t.Fatal("mapped graph unreadable while references remain")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Close past zero references did not panic")
			}
		}()
		m.Close()
	}()
}

// TestMappedStringsOutliveClose: strings are the one representation allowed
// to escape the graph handle's lifetime, so they must be heap copies, valid
// after the mapping is gone.
func TestMappedStringsOutliveClose(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	g := snapshotTestGraph(t, 33, 80)
	path := writeSnapshotTemp(t, g)
	m, err := OpenSnapshotMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for v := 0; v < m.NumNodes(); v++ {
		want = append(want, m.Attr(NodeID(v), "gender").Text())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	for v, w := range want {
		if len(w) > 64 {
			t.Fatalf("node %d string looks corrupt after munmap: %q", v, w)
		}
	}
}

// TestMappedDomainsFallback: the mapped path skips CRC verification, so a
// corrupt DOM2 section reaches the lazy domain decoder — which must detect
// it and recompute the domains from the columns instead of returning
// garbage.
func TestMappedDomainsFallback(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	g := snapshotTestGraph(t, 37, 60)
	path := writeSnapshotTemp(t, g)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Find DOM2 in the section table and trash its payload.
	count := int(binary.LittleEndian.Uint32(data[12:16]))
	for i := 0; i < count; i++ {
		ent := data[snapHeaderBase+snapTableEntry*i:]
		if string(ent[:4]) != "DOM2" {
			continue
		}
		off := binary.LittleEndian.Uint64(ent[4:12])
		l := binary.LittleEndian.Uint64(ent[12:20])
		for j := uint64(0); j < l; j++ {
			data[off+j] = 0xff
		}
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenSnapshotMapped(path)
	if err != nil {
		t.Fatalf("mapped open with corrupt DOM2: %v", err)
	}
	defer m.Close()
	wantDoms, gotDoms := g.domainList(), m.domainList()
	if len(wantDoms) != len(gotDoms) {
		t.Fatalf("domain count %d vs %d", len(wantDoms), len(gotDoms))
	}
	for a := range wantDoms {
		if !valueSlicesBitEqual(wantDoms[a], gotDoms[a]) {
			t.Fatalf("recomputed domain of %q differs", g.attrTable[a])
		}
	}
}

// TestMappedReencode: WriteSnapshot of a mapped graph must produce the
// exact bytes of the original file (the coordinator re-serializes possibly
// mapped graphs onto the wire).
func TestMappedReencode(t *testing.T) {
	g := snapshotTestGraph(t, 39, 70)
	path := writeSnapshotTemp(t, g)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := OpenSnapshotMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, m); err != nil {
		t.Fatalf("re-encoding mapped graph: %v", err)
	}
	if !bytes.Equal(orig, buf.Bytes()) {
		t.Fatal("re-encoded mapped graph differs from the original snapshot bytes")
	}
}
