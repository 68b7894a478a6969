package server

import (
	"bytes"
	"strings"
	"testing"

	"fairsqg/internal/graph"
)

// tinyGraph builds a minimal frozen graph for registry tests.
func tinyGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New()
	a := g.AddNode("Person", map[string]graph.Value{"gender": graph.Str("female")})
	b := g.AddNode("Person", map[string]graph.Value{"gender": graph.Str("male")})
	if err := g.AddEdge(a, b, "knows"); err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	return g
}

func TestRegistryPutAcquireRemove(t *testing.T) {
	r := NewRegistry()
	g := tinyGraph(t)
	if err := r.Put("tiny", g); err != nil {
		t.Fatal(err)
	}
	if err := r.Put("tiny", g); err == nil {
		t.Fatal("duplicate Put should fail")
	}
	if err := r.Put("bad name!", g); err == nil {
		t.Fatal("invalid name should fail")
	}
	if err := r.Put("unfrozen", graph.New()); err == nil {
		t.Fatal("unfrozen graph should fail")
	}

	h, err := r.Acquire("tiny")
	if err != nil {
		t.Fatal(err)
	}
	if info, _ := r.Info("tiny"); info.Refs != 1 {
		t.Fatalf("refs = %d, want 1", info.Refs)
	}
	// Removal doesn't invalidate the outstanding handle.
	if err := r.Remove("tiny"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Acquire("tiny"); err == nil {
		t.Fatal("acquire after remove should fail")
	}
	if h.Graph() != g || h.Engine() == nil || h.Name() != "tiny" {
		t.Fatal("handle invalidated by Remove")
	}
	h.Release()
	h.Release() // idempotent
}

func TestRegistryReadFormats(t *testing.T) {
	g := tinyGraph(t)
	var tsv, js bytes.Buffer
	if err := graph.WriteTSV(&tsv, g); err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteJSON(&js, g); err != nil {
		t.Fatal(err)
	}

	r := NewRegistry()
	if err := r.Read("t1", "tsv", bytes.NewReader(tsv.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := r.Read("t2", "json", bytes.NewReader(js.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := r.Read("t3", "xml", strings.NewReader("")); err == nil {
		t.Fatal("unknown format should fail")
	}
	if err := r.Read("t4", "tsv", strings.NewReader("not\ta\tgraph\nat all")); err == nil {
		t.Fatal("malformed TSV should fail")
	}
	infos := r.List()
	if len(infos) != 2 || infos[0].Name != "t1" || infos[1].Name != "t2" {
		t.Fatalf("List = %+v, want t1,t2", infos)
	}
	for _, info := range infos {
		if info.Nodes != 2 || info.Edges != 1 {
			t.Fatalf("%s: %d nodes %d edges, want 2/1", info.Name, info.Nodes, info.Edges)
		}
	}
}
