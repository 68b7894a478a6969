package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// snapshotTestGraph generates a graph that exercises every column kind
// (float64, string, bool, mixed-Value), Null holes (attributes missing on
// a random subset of nodes), NaN and infinities in numeric columns, an
// explicit all-Null attribute, multigraph edges (parallel edges with the
// same and with different labels) and self-loops.
func snapshotTestGraph(t testing.TB, seed int64, n int) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := New()
	labels := []string{"Person", "Org", "Paper"}
	genders := []string{"female", "male", "nonbinary"}
	for i := 0; i < n; i++ {
		attrs := map[string]Value{}
		if rng.Float64() < 0.9 { // Null hole otherwise
			switch rng.Intn(4) {
			case 0:
				attrs["score"] = Num(math.NaN())
			case 1:
				attrs["score"] = Num(math.Inf(1 - 2*rng.Intn(2)))
			default:
				attrs["score"] = Num(rng.NormFloat64() * 100)
			}
		}
		if rng.Float64() < 0.8 {
			attrs["gender"] = Str(genders[rng.Intn(len(genders))])
		}
		if rng.Float64() < 0.7 {
			attrs["active"] = Bool(rng.Intn(2) == 0)
		}
		if rng.Float64() < 0.6 { // mixed-kind column
			switch rng.Intn(4) {
			case 0:
				attrs["misc"] = Num(float64(rng.Intn(10)))
			case 1:
				attrs["misc"] = Str(fmt.Sprintf("m%d", rng.Intn(5)))
			case 2:
				attrs["misc"] = Bool(true)
			default:
				attrs["misc"] = Null
			}
		}
		if rng.Float64() < 0.3 { // all-Null column
			attrs["ghost"] = Null
		}
		g.AddNode(labels[rng.Intn(len(labels))], attrs)
	}
	edgeLabels := []string{"knows", "cites", "worksAt"}
	for i := 0; i < n*3; i++ {
		from := NodeID(rng.Intn(n))
		to := NodeID(rng.Intn(n)) // self-loops allowed
		if err := g.AddEdge(from, to, edgeLabels[rng.Intn(len(edgeLabels))]); err != nil {
			t.Fatal(err)
		}
		if rng.Float64() < 0.1 { // parallel duplicate, same label
			if err := g.AddEdge(from, to, edgeLabels[0]); err != nil {
				t.Fatal(err)
			}
		}
	}
	g.Freeze()
	return g
}

// valuesBitEqual compares Values treating NaN as equal to itself bit-for-
// bit, which reflect.DeepEqual would not.
func valuesBitEqual(a, b Value) bool {
	return a.kind == b.kind && a.str == b.str &&
		math.Float64bits(a.num) == math.Float64bits(b.num)
}

func valueSlicesBitEqual(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !valuesBitEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func floatsBitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// flat returns a table's entries as one slice (nil when empty).
func flat[T any](t Table[T]) (out []T) {
	t.spans(func(s []T) { out = append(out, s...) })
	return out
}

// assertGraphDeepEqual asserts every piece of the frozen representation —
// dictionaries, nodes, both adjacency directions, columns with presence
// bitmaps, active domains, label index, sorted permutation indexes,
// memory and degree stats — is identical between want and got.
func assertGraphDeepEqual(t testing.TB, want, got *Graph) {
	t.Helper()
	if !got.frozen {
		t.Fatal("reconstructed graph is not frozen")
	}
	if !reflect.DeepEqual(want.labels, got.labels) {
		t.Fatalf("labels differ: %v vs %v", want.labels, got.labels)
	}
	if !reflect.DeepEqual(want.labelIDs, got.labelIDs) {
		t.Fatalf("labelIDs differ")
	}
	if !reflect.DeepEqual(want.attrTable, got.attrTable) {
		t.Fatalf("attrTable differs: %v vs %v", want.attrTable, got.attrTable)
	}
	if !reflect.DeepEqual(want.attrIDs, got.attrIDs) {
		t.Fatalf("attrIDs differ")
	}
	if !reflect.DeepEqual(want.attrNames, got.attrNames) {
		t.Fatalf("attrNames differ: %v vs %v", want.attrNames, got.attrNames)
	}
	if !reflect.DeepEqual(flat(want.nodeLabels), flat(got.nodeLabels)) {
		t.Fatalf("per-node labels differ")
	}
	if !reflect.DeepEqual(flat(want.out), flat(got.out)) {
		t.Fatalf("out-adjacency differs")
	}
	if !reflect.DeepEqual(flat(want.in), flat(got.in)) {
		t.Fatalf("in-adjacency differs")
	}
	if want.numEdges != got.numEdges {
		t.Fatalf("numEdges %d vs %d", want.numEdges, got.numEdges)
	}
	if want.maxOutDeg != got.maxOutDeg || want.maxInDeg != got.maxInDeg {
		t.Fatalf("degree stats (%d,%d) vs (%d,%d)", want.maxOutDeg, want.maxInDeg, got.maxOutDeg, got.maxInDeg)
	}
	if want.mem != got.mem {
		t.Fatalf("Memory() %+v vs %+v", want.mem, got.mem)
	}
	if !reflect.DeepEqual(want.byLabel, got.byLabel) {
		t.Fatalf("label index differs")
	}
	if len(want.cols) != len(got.cols) {
		t.Fatalf("column count %d vs %d", len(want.cols), len(got.cols))
	}
	for a := range want.cols {
		w, g := &want.cols[a], &got.cols[a]
		name := want.attrTable[a]
		if w.kind != g.kind || w.count != g.count {
			t.Fatalf("column %q kind/count (%v,%d) vs (%v,%d)", name, w.kind, w.count, g.kind, g.count)
		}
		if !reflect.DeepEqual(flat(w.present), flat(g.present)) {
			t.Fatalf("column %q presence bitmap differs", name)
		}
		if !floatsBitEqual(flat(w.nums), flat(g.nums)) {
			t.Fatalf("column %q float payload differs", name)
		}
		if w.refs != nil || g.refs != nil {
			// Mapped graphs keep string columns as string-table refs;
			// compare what nodes actually read instead of the raw arrays.
			for v := 0; v < want.NumNodes(); v++ {
				if w.value(NodeID(v)) != g.value(NodeID(v)) {
					t.Fatalf("column %q string value differs at node %d", name, v)
				}
			}
		} else if !reflect.DeepEqual(flat(w.strs), flat(g.strs)) {
			t.Fatalf("column %q string payload differs", name)
		}
		if !reflect.DeepEqual(flat(w.bools), flat(g.bools)) {
			t.Fatalf("column %q bool bitmap differs", name)
		}
		if !valueSlicesBitEqual(w.vals, g.vals) {
			t.Fatalf("column %q mixed payload differs", name)
		}
	}
	wantDoms, gotDoms := want.domainList(), got.domainList()
	if len(wantDoms) != len(gotDoms) {
		t.Fatalf("domains count %d vs %d", len(wantDoms), len(gotDoms))
	}
	for a := range wantDoms {
		if !valueSlicesBitEqual(wantDoms[a], gotDoms[a]) {
			t.Fatalf("active domain of %q differs:\n%v\n%v", want.attrTable[a], wantDoms[a], gotDoms[a])
		}
	}
	if len(want.indexes) != len(got.indexes) {
		t.Fatalf("index count %d vs %d", len(want.indexes), len(got.indexes))
	}
	for k, wp := range want.indexes {
		gp, ok := got.indexes[k]
		if !ok {
			t.Fatalf("index (%d,%d) missing", k.label, k.attr)
		}
		if !reflect.DeepEqual(wp.nodes(), gp.nodes()) {
			t.Fatalf("index (%d,%d) permutation differs", k.label, k.attr)
		}
	}
	// The derived read API must agree too.
	if !reflect.DeepEqual(Summarize(want), Summarize(got)) {
		t.Fatalf("Summarize differs:\n%v\n%v", Summarize(want), Summarize(got))
	}
}

func snapshotRoundTrip(t testing.TB, g *Graph) *Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	g2, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	return g2
}

// TestSnapshotRoundTripDifferential is the codec's differential
// equivalence suite: across seeds and sizes, ReadSnapshot(WriteSnapshot(g))
// must be deep-equal to the Freeze-built graph.
func TestSnapshotRoundTripDifferential(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		n    int
	}{{1, 0}, {2, 1}, {3, 37}, {4, 200}, {5, 500}} {
		t.Run(fmt.Sprintf("seed%d_n%d", tc.seed, tc.n), func(t *testing.T) {
			g := snapshotTestGraph(t, tc.seed, tc.n)
			assertGraphDeepEqual(t, g, snapshotRoundTrip(t, g))
		})
	}
}

// TestSnapshotDeterministic asserts WriteSnapshot is byte-deterministic,
// both across repeated writes and across a read/write cycle — the property
// the registry relies on to treat snapshots as stable cache artifacts.
func TestSnapshotDeterministic(t *testing.T) {
	g := snapshotTestGraph(t, 11, 120)
	var a, b bytes.Buffer
	if err := WriteSnapshot(&a, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(&b, g); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two writes of the same graph differ")
	}
	g2, err := ReadSnapshot(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := WriteSnapshot(&c, g2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("write after read differs from original write")
	}
}

// TestSnapshotRejectsUnfrozen: the codec serializes the frozen layout, so
// an unfrozen graph is a caller bug, reported as an error.
func TestSnapshotRejectsUnfrozen(t *testing.T) {
	g := New()
	g.AddNode("A", nil)
	if err := WriteSnapshot(&bytes.Buffer{}, g); err == nil {
		t.Fatal("WriteSnapshot accepted an unfrozen graph")
	}
}

// TestSnapshotCRCNamesSection flips one byte in each section's payload and
// asserts the decoder reports a CRC mismatch naming that exact section.
func TestSnapshotCRCNamesSection(t *testing.T) {
	g := snapshotTestGraph(t, 7, 60)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	count := int(binary.LittleEndian.Uint32(data[12:16]))
	for i := 0; i < count; i++ {
		ent := data[snapHeaderBase+snapTableEntry*i:]
		tag := string(ent[:4])
		offset := binary.LittleEndian.Uint64(ent[4:12])
		length := binary.LittleEndian.Uint64(ent[12:20])
		if length == 0 {
			continue
		}
		corrupt := make([]byte, len(data))
		copy(corrupt, data)
		corrupt[offset+length/2] ^= 0x40
		_, err := ReadSnapshot(bytes.NewReader(corrupt))
		if err == nil {
			t.Fatalf("bit flip in %s accepted", tag)
		}
		if !strings.Contains(err.Error(), tag) || !strings.Contains(err.Error(), "CRC") {
			t.Fatalf("bit flip in %s reported as %q; want a CRC error naming the section", tag, err)
		}
	}
}

// TestSnapshotRejectsTruncation: every prefix must fail cleanly.
func TestSnapshotRejectsTruncation(t *testing.T) {
	g := snapshotTestGraph(t, 9, 40)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut += 1 + cut/16 {
		if _, err := ReadSnapshot(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", cut, len(data))
		}
	}
}

// TestSnapshotRejectsReorderedSections swaps two section-table entries
// (with their payloads untouched): offsets are then non-contiguous, which
// the strict canonical layout rejects.
func TestSnapshotRejectsReorderedSections(t *testing.T) {
	g := snapshotTestGraph(t, 13, 40)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	swapped := make([]byte, len(data))
	copy(swapped, data)
	a := swapped[snapHeaderBase : snapHeaderBase+snapTableEntry]
	b := swapped[snapHeaderBase+snapTableEntry : snapHeaderBase+2*snapTableEntry]
	tmp := make([]byte, snapTableEntry)
	copy(tmp, a)
	copy(a, b)
	copy(b, tmp)
	if _, err := ReadSnapshot(bytes.NewReader(swapped)); err == nil {
		t.Fatal("section-reordered snapshot accepted")
	}
}

// TestSnapshotRejectsForgedCounts forges the MET2 node count upward and
// asserts the decoder fails validation instead of allocating or slicing
// for the forged count. (CRCs are recomputed so the forgery reaches the
// semantic checks, not the checksum pass.)
func TestSnapshotRejectsForgedCounts(t *testing.T) {
	g := snapshotTestGraph(t, 17, 30)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	forge := func(nodes uint64) []byte {
		count := int(binary.LittleEndian.Uint32(data[12:16]))
		var sections []rawSection
		for i := 0; i < count; i++ {
			ent := data[snapHeaderBase+snapTableEntry*i:]
			off := binary.LittleEndian.Uint64(ent[4:12])
			l := binary.LittleEndian.Uint64(ent[12:20])
			payload := data[off : off+l]
			if string(ent[:4]) == "MET2" {
				forged := make([]byte, len(payload))
				copy(forged, payload)
				binary.LittleEndian.PutUint64(forged, nodes) // field 0: node count
				payload = forged
			}
			sections = append(sections, rawSection{tag: string(ent[:4]), payload: payload})
		}
		return rebuildSnapshot(t, sections)
	}

	// A huge forgery must die on the id-space range check, naming MET2,
	// before any forged-sized allocation happens.
	_, err := ReadSnapshot(bytes.NewReader(forge(1 << 40)))
	if err == nil {
		t.Fatal("forged node count accepted")
	}
	if !strings.Contains(err.Error(), "MET2") {
		t.Fatalf("forged count reported as %q; want a MET2 validation error", err)
	}

	// An off-by-one forgery passes the range check and must instead fail
	// the cross-check against the real fixed-width section sizes.
	if _, err := ReadSnapshot(bytes.NewReader(forge(uint64(g.NumNodes()) + 1))); err == nil {
		t.Fatal("off-by-one forged node count accepted")
	}
}

// rawSection is one (tag, payload) pair of a snapshot being reassembled.
type rawSection struct {
	tag     string
	payload []byte
}

// rebuildSnapshot reassembles a snapshot file from modified sections,
// recomputing offsets and CRCs so structural validation passes and the
// decoder exercises its semantic checks.
func rebuildSnapshot(t testing.TB, sections []rawSection) []byte {
	t.Helper()
	var out bytes.Buffer
	out.WriteString(snapMagic)
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], SnapshotVersion)
	out.Write(u32[:])
	binary.LittleEndian.PutUint32(u32[:], uint32(len(sections)))
	out.Write(u32[:])
	offset := uint64(snapHeaderBase + snapTableEntry*len(sections))
	for _, s := range sections {
		out.WriteString(s.tag)
		var u64 [8]byte
		binary.LittleEndian.PutUint64(u64[:], offset)
		out.Write(u64[:])
		binary.LittleEndian.PutUint64(u64[:], uint64(len(s.payload)))
		out.Write(u64[:])
		binary.LittleEndian.PutUint32(u32[:], crc32.ChecksumIEEE(s.payload))
		out.Write(u32[:])
		offset += uint64(len(s.payload))
	}
	for _, s := range sections {
		out.Write(s.payload)
	}
	return out.Bytes()
}

// TestSnapshotRejectsBadVersion: every reader accepts exactly
// SnapshotVersion. Any other value in the version field of an otherwise
// valid file is refused with an error wrapping ErrSnapshotVersion, and a
// refused mapped open leaves the file unmapped.
func TestSnapshotRejectsBadVersion(t *testing.T) {
	g := snapshotTestGraph(t, 19, 10)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	readers := []struct {
		name string
		read func(path string) (*Graph, error)
	}{
		{"ReadSnapshot", func(path string) (*Graph, error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return ReadSnapshot(f)
		}},
		{"ReadSnapshotFile", ReadSnapshotFile},
		{"OpenSnapshotMapped", OpenSnapshotMapped},
	}
	for _, version := range []uint32{0, 1, SnapshotVersion + 1, math.MaxUint32} {
		data := bytes.Clone(buf.Bytes())
		binary.LittleEndian.PutUint32(data[8:12], version)
		path := filepath.Join(t.TempDir(), "stale.fsnap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, r := range readers {
			got, err := r.read(path)
			if !errors.Is(err, ErrSnapshotVersion) {
				t.Errorf("version %d via %s: got (%v, %v); want an error wrapping ErrSnapshotVersion", version, r.name, got, err)
			}
		}
		// Linux lists live mappings by path; elsewhere there is nothing to read.
		if maps, err := os.ReadFile("/proc/self/maps"); err == nil && bytes.Contains(maps, []byte(path)) {
			t.Errorf("version %d: refused file is still mapped", version)
		}
	}
}
