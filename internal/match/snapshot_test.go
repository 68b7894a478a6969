package match

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fairsqg/internal/graph"
	"fairsqg/internal/query"
)

// snapshotCopy round-trips a frozen graph through the binary snapshot
// codec, returning the decoded copy the selection sweeps below and the
// equivalence generator's decode backing run against. Matching on the copy
// must be indistinguishable from matching on the original — same results,
// same access-path counters — because the snapshot serializes the frozen
// layout (columns, indexes, adjacency) rather than the source data.
func snapshotCopy(t testing.TB, g *graph.Graph) *graph.Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteSnapshot(&buf, g); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	got, err := graph.ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	return got
}

// mappedCopy round-trips a frozen graph through a snapshot file opened
// with OpenSnapshotMapped, so the sweeps below and the generator's mapped
// backing also prove the zero-copy storage layer: matching over mmap-backed
// sections must be indistinguishable from matching over heap slices.
func mappedCopy(t testing.TB, g *graph.Graph) *graph.Graph {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.fsnap")
	var buf bytes.Buffer
	if err := graph.WriteSnapshot(&buf, g); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := graph.OpenSnapshotMapped(path)
	if err != nil {
		t.Fatalf("OpenSnapshotMapped: %v", err)
	}
	t.Cleanup(func() {
		if err := m.Close(); err != nil {
			t.Errorf("closing mapped graph: %v", err)
		}
	})
	return m
}

// checkSelectionCopy sweeps the index-selection matrix (every operator and
// value kind, Null/NaN bounds) on indexSelectionGraph and on its copy, and
// requires byte-identical candidate lists and equal Index/ScanSelections
// counters, the index path taken.
func checkSelectionCopy(t *testing.T, copyOf func(testing.TB, *graph.Graph) *graph.Graph) {
	orig := indexSelectionGraph(t)
	cp := copyOf(t, orig)
	mOrig, mCopy := New(orig), New(cp)
	bounds := map[string][]graph.Value{
		"score": {graph.Int(5), graph.Int(10), graph.Int(15), graph.Int(20),
			graph.Int(50), graph.Int(99), graph.Null, graph.Num(math.NaN())},
		"name":      {graph.Str(""), graph.Str("ann"), graph.Str("bob"), graph.Str("zzz"), graph.Null},
		"flag":      {graph.Bool(false), graph.Bool(true), graph.Null},
		"mix":       {graph.Int(1), graph.Str("x"), graph.Num(math.NaN()), graph.Null},
		"employees": {graph.Int(10), graph.Null},
	}
	for attr, bs := range bounds {
		for _, op := range []graph.Op{graph.OpLT, graph.OpLE, graph.OpEQ, graph.OpGE, graph.OpGT} {
			for _, bound := range bs {
				raw := []query.BoundLiteral{{Attr: attr, Op: op, Value: bound}}
				want := mOrig.selectCandidates("Person", query.CompileLiterals(orig, raw))
				got := mCopy.selectCandidates("Person", query.CompileLiterals(cp, raw))
				if !reflect.DeepEqual(got, want) {
					t.Errorf("Person[%s %s %v]: copy %v, original %v", attr, op, bound, got, want)
				}
			}
		}
	}
	if mOrig.Stats.IndexSelections != mCopy.Stats.IndexSelections || mOrig.Stats.ScanSelections != mCopy.Stats.ScanSelections {
		t.Errorf("access paths diverge: original %+v, copy %+v", mOrig.Stats, mCopy.Stats)
	}
	if mCopy.Stats.IndexSelections == 0 {
		t.Error("the copy never took the index path — indexes not restored?")
	}
}

func TestSelectCandidatesMappedDifferential(t *testing.T)   { checkSelectionCopy(t, mappedCopy) }
func TestSelectCandidatesSnapshotDifferential(t *testing.T) { checkSelectionCopy(t, snapshotCopy) }
