package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"fairsqg/internal/gen"
	"fairsqg/internal/graph"
)

// BenchmarkSnapshotLoad compares the two ways a server start can get a
// frozen 100k-node graph into memory: decoding the binary snapshot
// (frozen layout restored directly) versus parsing the TSV source and
// re-running Freeze (column transposition + index builds). The snapshot
// path is what fairsqgd's -snapshot-dir warm restart pays per graph.
func BenchmarkSnapshotLoad(b *testing.B) {
	g, err := gen.Build("lki", gen.Options{Nodes: 100000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var snap, tsv bytes.Buffer
	if err := graph.WriteSnapshot(&snap, g); err != nil {
		b.Fatal(err)
	}
	if err := graph.WriteTSV(&tsv, g); err != nil {
		b.Fatal(err)
	}
	b.Logf("graph: %d nodes, %d edges; snapshot %d bytes, tsv %d bytes",
		g.NumNodes(), g.NumEdges(), snap.Len(), tsv.Len())

	b.Run("snapshot", func(b *testing.B) {
		b.SetBytes(int64(snap.Len()))
		for i := 0; i < b.N; i++ {
			got, err := graph.ReadSnapshot(bytes.NewReader(snap.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			if got.NumNodes() != g.NumNodes() {
				b.Fatalf("decoded %d nodes, want %d", got.NumNodes(), g.NumNodes())
			}
		}
	})
	b.Run("parse+freeze", func(b *testing.B) {
		b.SetBytes(int64(tsv.Len()))
		for i := 0; i < b.N; i++ {
			got, err := graph.ReadTSV(bytes.NewReader(tsv.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			if got.NumNodes() != g.NumNodes() {
				b.Fatalf("parsed %d nodes, want %d", got.NumNodes(), g.NumNodes())
			}
		}
	})
}

// BenchmarkSnapshotMappedLoad measures open-to-first-query on the same
// 100k-node lki graph: how long until a freshly started process answers
// its first read. The mapped path (mmap + structural validation, no decode
// and no CRC pass) is the -mmap-graphs restore cost; the heap decode is
// what a full-decode restore pays. The "query" walks one label
// bucket and its out-edges — enough to fault real pages, small enough not
// to drown the open.
func BenchmarkSnapshotMappedLoad(b *testing.B) {
	g, err := gen.Build("lki", gen.Options{Nodes: 100000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	firstQuery := func(g *graph.Graph) int {
		sum := 0
		for _, v := range g.NodesByLabelID(0) {
			sum += len(g.EdgeRun(v, 0, true)) + g.OutDegree(v)
		}
		return sum
	}
	want := firstQuery(g)

	dir := b.TempDir()
	v2Path := filepath.Join(dir, "g.fsnap")
	var v2 bytes.Buffer
	if err := graph.WriteSnapshot(&v2, g); err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(v2Path, v2.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	b.Logf("graph: %d nodes, %d edges; snapshot %d bytes", g.NumNodes(), g.NumEdges(), v2.Len())

	b.Run("mapped", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := graph.OpenSnapshotMapped(v2Path)
			if err != nil {
				b.Fatal(err)
			}
			if got := firstQuery(m); got != want {
				b.Fatalf("first query = %d, want %d", got, want)
			}
			b.StopTimer() // teardown is not part of open-to-first-query
			if err := m.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
	b.Run("v2-heap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h, err := graph.ReadSnapshotFile(v2Path)
			if err != nil {
				b.Fatal(err)
			}
			if got := firstQuery(h); got != want {
				b.Fatalf("first query = %d, want %d", got, want)
			}
		}
	})
}
