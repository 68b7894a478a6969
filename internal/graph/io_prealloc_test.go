package graph

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestTSVCountHeader: WriteTSV emits the count header and ReadTSV uses
// it without it changing the parsed graph.
func TestTSVCountHeader(t *testing.T) {
	g := fuzzSeedGraph()
	var buf bytes.Buffer
	if err := WriteTSV(&buf, g); err != nil {
		t.Fatal(err)
	}
	header := fmt.Sprintf("# fairsqg-graph nodes=%d edges=%d", g.NumNodes(), g.NumEdges())
	if !strings.HasPrefix(buf.String(), header+"\n") {
		t.Fatalf("TSV output missing count header %q:\n%s", header, buf.String())
	}
	back, err := ReadTSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip %d/%d nodes/edges, want %d/%d",
			back.NumNodes(), back.NumEdges(), g.NumNodes(), g.NumEdges())
	}
}

// TestForgedCountsBounded is the robustness regression: a hostile header
// declaring trillions of nodes must neither fail the parse nor drive the
// pre-allocation — Grow clamps it to maxPreallocEntries.
func TestForgedCountsBounded(t *testing.T) {
	const forged = 1 << 40
	tsv := fmt.Sprintf("# fairsqg-graph nodes=%d edges=%d\nN\t0\tPerson\tage=3\nN\t1\tPerson\nE\t0\t1\tknows\n", forged, forged)
	g, err := ReadTSV(strings.NewReader(tsv))
	if err != nil {
		t.Fatalf("forged TSV header rejected: %v", err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("parsed %d/%d nodes/edges, want 2/1", g.NumNodes(), g.NumEdges())
	}

	jsonDoc := fmt.Sprintf(`{"counts":{"nodes":%d,"edges":%d},"nodes":[{"id":0,"label":"Person"}],"edges":[]}`, forged, forged)
	gj, err := ReadJSON(strings.NewReader(jsonDoc))
	if err != nil {
		t.Fatalf("forged JSON counts rejected: %v", err)
	}
	if gj.NumNodes() != 1 {
		t.Fatalf("parsed %d nodes, want 1", gj.NumNodes())
	}

	// Negative and garbage counts are ignored outright.
	for _, hdr := range []string{
		"# fairsqg-graph nodes=-7 edges=-9",
		"# fairsqg-graph nodes=zzz edges=1",
		"# some unrelated comment",
	} {
		if _, err := ReadTSV(strings.NewReader(hdr + "\nN\t0\tPerson\n")); err != nil {
			t.Errorf("header %q broke the parse: %v", hdr, err)
		}
	}
}

// TestGrowClamped checks the clamp directly: capacity never exceeds
// len + maxPreallocEntries no matter the hint, and Grow is a no-op on
// frozen graphs.
func TestGrowClamped(t *testing.T) {
	g := New()
	g.Grow(1 << 40)
	if c := cap(g.nodeLabels.flat); c > maxPreallocEntries {
		t.Fatalf("cap(nodeLabels) = %d after huge Grow, clamp is %d", c, maxPreallocEntries)
	}
	if cap(g.out.flat) != cap(g.nodeLabels.flat) || cap(g.in.flat) != cap(g.nodeLabels.flat) {
		t.Fatalf("adjacency capacity %d/%d diverges from nodes %d", cap(g.out.flat), cap(g.in.flat), cap(g.nodeLabels.flat))
	}
	g.AddNode("Person", nil)
	g.Freeze()
	g.Grow(100) // must not panic or mutate a frozen graph
	if g.NumNodes() != 1 {
		t.Fatal("Grow mutated a frozen graph")
	}
}
