package match

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fairsqg/internal/graph"
	"fairsqg/internal/query"
)

// snapshotCopy round-trips a frozen graph through the binary snapshot
// codec, returning the decoded copy the differential tests below run
// against. Matching on the copy must be indistinguishable from matching
// on the original — same results, same access-path counters — because the
// snapshot serializes the frozen layout (columns, indexes, adjacency)
// rather than the source data.
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
// with OpenSnapshotMapped, so the differential tests below also prove the
// zero-copy storage layer: matching over mmap-backed sections must be
// indistinguishable from matching over heap slices.
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

// TestMatcherMappedDifferential: the talent grid over a mapped graph must
// produce byte-identical results and identical access-path counters to the
// heap-built original.
func TestMatcherMappedDifferential(t *testing.T) {
	orig := talentGraph(t)
	mapped := mappedCopy(t, orig)
	tpl := talentTpl(t)

	mOrig := New(orig)
	mMap := New(mapped)
	for _, in := range []query.Instantiation{
		{query.Wildcard, query.Wildcard, 0},
		{0, 0, 1}, {1, 0, 1}, {0, 1, 1}, {1, 1, 1},
		{query.Wildcard, query.Wildcard, 1},
	} {
		q := query.MustInstance(tpl, in)
		want := mOrig.EvalOutput(q)
		got := mMap.EvalOutput(q)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("instantiation %v: mapped copy returned %v, original %v", in, got, want)
		}
	}
	if mOrig.Stats != mMap.Stats {
		t.Errorf("matcher stats diverge: original %+v, mapped %+v", mOrig.Stats, mMap.Stats)
	}
}

// TestSelectCandidatesMappedDifferential sweeps the index-selection matrix
// against a mapped copy: same candidates, same Index/ScanSelections split.
func TestSelectCandidatesMappedDifferential(t *testing.T) {
	orig := indexSelectionGraph(t)
	mapped := mappedCopy(t, orig)
	mOrig := New(orig)
	mMap := New(mapped)

	bounds := map[string][]graph.Value{
		"score": {graph.Int(5), graph.Int(15), graph.Int(99), graph.Null, graph.Num(math.NaN())},
		"name":  {graph.Str(""), graph.Str("ann"), graph.Str("zzz"), graph.Null},
		"flag":  {graph.Bool(false), graph.Bool(true), graph.Null},
		"mix":   {graph.Int(1), graph.Str("x"), graph.Null},
	}
	for attr, bs := range bounds {
		for _, op := range []graph.Op{graph.OpLT, graph.OpLE, graph.OpEQ, graph.OpGE, graph.OpGT} {
			for _, bound := range bs {
				raw := []query.BoundLiteral{{Attr: attr, Op: op, Value: bound}}
				want := mOrig.selectCandidates("Person", query.CompileLiterals(orig, raw))
				got := mMap.selectCandidates("Person", query.CompileLiterals(mapped, raw))
				if !reflect.DeepEqual(got, want) {
					t.Errorf("Person[%s %s %v]: mapped %v, original %v", attr, op, bound, got, want)
				}
			}
		}
	}
	if mOrig.Stats.IndexSelections != mMap.Stats.IndexSelections ||
		mOrig.Stats.ScanSelections != mMap.Stats.ScanSelections {
		t.Errorf("access paths diverge: original %+v, mapped %+v", mOrig.Stats, mMap.Stats)
	}
}

// TestMatcherSnapshotDifferential runs the full talent instantiation grid
// through sequential matchers over the original graph and its snapshot
// copy, asserting identical outputs and identical Stats — candidate
// selection must take the same access path (index vs scan) on both.
func TestMatcherSnapshotDifferential(t *testing.T) {
	orig := talentGraph(t)
	snap := snapshotCopy(t, orig)
	tpl := talentTpl(t)

	mOrig := New(orig)
	mSnap := New(snap)
	for _, in := range []query.Instantiation{
		{query.Wildcard, query.Wildcard, 0},
		{0, 0, 1}, {1, 0, 1}, {0, 1, 1}, {1, 1, 1},
		{query.Wildcard, query.Wildcard, 1},
	} {
		q := query.MustInstance(tpl, in)
		want := mOrig.EvalOutput(q)
		got := mSnap.EvalOutput(q)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("instantiation %v: snapshot copy returned %v, original %v", in, got, want)
		}
	}
	if mOrig.Stats != mSnap.Stats {
		t.Errorf("matcher stats diverge: original %+v, snapshot %+v", mOrig.Stats, mSnap.Stats)
	}
}

// TestSelectCandidatesSnapshotDifferential sweeps the index-selection
// matrix (every operator and value kind, Null/NaN bounds, conjunctions)
// on both copies and requires byte-identical candidate lists and equal
// Index/ScanSelections counters.
func TestSelectCandidatesSnapshotDifferential(t *testing.T) {
	orig := indexSelectionGraph(t)
	snap := snapshotCopy(t, orig)
	mOrig := New(orig)
	mSnap := New(snap)

	bounds := map[string][]graph.Value{
		"score": {graph.Int(5), graph.Int(10), graph.Int(15), graph.Int(20),
			graph.Int(50), graph.Int(99), graph.Null, graph.Num(math.NaN())},
		"name":      {graph.Str(""), graph.Str("ann"), graph.Str("bob"), graph.Str("zzz"), graph.Null},
		"flag":      {graph.Bool(false), graph.Bool(true), graph.Null},
		"mix":       {graph.Int(1), graph.Str("x"), graph.Num(math.NaN()), graph.Null},
		"employees": {graph.Int(10), graph.Null},
	}
	ops := []graph.Op{graph.OpLT, graph.OpLE, graph.OpEQ, graph.OpGE, graph.OpGT}
	for attr, bs := range bounds {
		for _, op := range ops {
			for _, bound := range bs {
				raw := []query.BoundLiteral{{Attr: attr, Op: op, Value: bound}}
				want := mOrig.selectCandidates("Person", query.CompileLiterals(orig, raw))
				got := mSnap.selectCandidates("Person", query.CompileLiterals(snap, raw))
				if !reflect.DeepEqual(got, want) {
					t.Errorf("Person[%s %s %v]: snapshot %v, original %v", attr, op, bound, got, want)
				}
			}
		}
	}
	if mOrig.Stats.IndexSelections != mSnap.Stats.IndexSelections ||
		mOrig.Stats.ScanSelections != mSnap.Stats.ScanSelections {
		t.Errorf("access paths diverge: original %+v, snapshot %+v", mOrig.Stats, mSnap.Stats)
	}
	if mSnap.Stats.IndexSelections == 0 {
		t.Error("snapshot copy never took the index path — indexes not restored?")
	}
}

// TestEngineSnapshotDifferential evaluates the talent grid through
// concurrent engines on both copies (exercised under -race in CI) and
// asserts identical results and identical work counters.
func TestEngineSnapshotDifferential(t *testing.T) {
	orig := talentGraph(t)
	snap := snapshotCopy(t, orig)
	tpl := talentTpl(t)

	eOrig := NewEngine(orig, EngineOptions{})
	eSnap := NewEngine(snap, EngineOptions{})
	ctx := context.Background()
	for _, in := range []query.Instantiation{
		{0, 0, 1}, {1, 0, 1}, {0, 1, 1}, {1, 1, 1},
		{query.Wildcard, query.Wildcard, 1},
	} {
		q := query.MustInstance(tpl, in)
		want, _, err := eOrig.ParEvalNodeFiltered(ctx, q, q.T.Output, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := eSnap.ParEvalNodeFiltered(ctx, q, q.T.Output, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("instantiation %v: snapshot engine %v, original %v", in, got, want)
		}
	}
	so, ss := eOrig.Stats(), eSnap.Stats()
	if so.Evals != ss.Evals || so.CandidatesChecked != ss.CandidatesChecked ||
		so.IndexSelections != ss.IndexSelections || so.ScanSelections != ss.ScanSelections {
		t.Errorf("engine stats diverge: original %+v, snapshot %+v", so, ss)
	}
}
