package graph

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// buildSample creates a small professional network used across the tests.
func buildSample(t *testing.T) *Graph {
	t.Helper()
	g := New()
	p0 := g.AddNode("Person", map[string]Value{"name": Str("ann"), "age": Int(30)})
	p1 := g.AddNode("Person", map[string]Value{"name": Str("bob"), "age": Int(40)})
	p2 := g.AddNode("Person", map[string]Value{"name": Str("cyn"), "age": Int(25)})
	o0 := g.AddNode("Org", map[string]Value{"employees": Int(100)})
	o1 := g.AddNode("Org", map[string]Value{"employees": Int(5000)})
	for _, e := range []struct {
		from, to NodeID
		label    string
	}{
		{p0, p1, "knows"}, {p1, p2, "knows"}, {p2, p0, "knows"},
		{p0, o0, "worksAt"}, {p1, o1, "worksAt"}, {p2, o1, "worksAt"},
	} {
		if err := g.AddEdge(e.from, e.to, e.label); err != nil {
			t.Fatal(err)
		}
	}
	g.Freeze()
	return g
}

func TestGraphBasics(t *testing.T) {
	g := buildSample(t)
	if g.NumNodes() != 5 || g.NumEdges() != 6 {
		t.Fatalf("got |V|=%d |E|=%d, want 5, 6", g.NumNodes(), g.NumEdges())
	}
	if g.Label(0) != "Person" || g.Label(3) != "Org" {
		t.Error("labels wrong")
	}
	if got := g.Attr(0, "age"); !got.Equal(Int(30)) {
		t.Errorf("Attr(0, age) = %v", got)
	}
	if got := g.Attr(0, "missing"); !got.IsNull() {
		t.Errorf("missing attr = %v", got)
	}
	if len(g.NodesByLabel("Person")) != 3 || len(g.NodesByLabel("Org")) != 2 {
		t.Error("label index wrong")
	}
	if g.NodesByLabel("Nope") != nil {
		t.Error("unknown label should return nil")
	}
	if g.CountLabel("Person") != 3 {
		t.Error("CountLabel wrong")
	}
}

func TestGraphAdjacency(t *testing.T) {
	g := buildSample(t)
	if g.OutDegree(0) != 2 || g.InDegree(0) != 1 {
		t.Errorf("degrees of node 0: out=%d in=%d", g.OutDegree(0), g.InDegree(0))
	}
	knows := g.LookupLabel("knows")
	works := g.LookupLabel("worksAt")
	if !g.HasEdge(0, 1, knows) {
		t.Error("HasEdge(0,1,knows) = false")
	}
	if g.HasEdge(1, 0, knows) {
		t.Error("HasEdge(1,0,knows) = true; edges are directed")
	}
	if !g.HasEdge(2, 4, works) {
		t.Error("HasEdge(2,4,worksAt) = false")
	}
	if g.HasEdge(0, 1, works) {
		t.Error("HasEdge label mismatch accepted")
	}
}

func TestActiveDomains(t *testing.T) {
	g := buildSample(t)
	ages := g.ActiveDomain("age")
	want := []Value{Int(25), Int(30), Int(40)}
	if len(ages) != len(want) {
		t.Fatalf("adom(age) = %v", ages)
	}
	for i := range want {
		if !ages[i].Equal(want[i]) {
			t.Errorf("adom(age)[%d] = %v, want %v", i, ages[i], want[i])
		}
	}
	if got := g.MaxActiveDomain(); got != 3 {
		t.Errorf("MaxActiveDomain = %d", got)
	}
	if got := g.AttrNames(); !reflect.DeepEqual(got, []string{"age", "employees", "name"}) {
		t.Errorf("AttrNames = %v", got)
	}
	if got := g.NodeLabels(); !reflect.DeepEqual(got, []string{"Org", "Person"}) {
		t.Errorf("NodeLabels = %v", got)
	}
}

func TestFreezeGuards(t *testing.T) {
	g := New()
	g.AddNode("A", nil)
	mustPanic(t, "NodesByLabel before freeze", func() { g.NodesByLabel("A") })
	g.Freeze()
	mustPanic(t, "AddNode after freeze", func() { g.AddNode("B", nil) })
	mustPanic(t, "AddEdge after freeze", func() { _ = g.AddEdge(0, 0, "x") })
	mustPanic(t, "SetAttr after freeze", func() { g.SetAttr(0, "a", Int(1)) })
	g.Freeze() // idempotent
}

func TestAddEdgeOutOfRange(t *testing.T) {
	g := New()
	g.AddNode("A", nil)
	if err := g.AddEdge(0, 5, "x"); err == nil {
		t.Error("AddEdge out of range should fail")
	}
	if err := g.AddEdge(-1, 0, "x"); err == nil {
		t.Error("AddEdge negative should fail")
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestSummarize(t *testing.T) {
	g := buildSample(t)
	s := Summarize(g)
	if s.Nodes != 5 || s.Edges != 6 || s.NodeLabels != 2 || s.EdgeLabels != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.AvgAttrs <= 0 || s.MaxAdom != 3 {
		t.Errorf("stats = %+v", s)
	}
	if !strings.Contains(s.String(), "|V|=5") {
		t.Errorf("Stats.String() = %q", s.String())
	}
	if len(s.TopLabels) == 0 || s.TopLabels[0].Label != "Person" {
		t.Errorf("TopLabels = %v", s.TopLabels)
	}
}

// TestJSONRoundTrip: what WriteJSON writes ReadJSON reads back Equivalent,
// each value with its kind: strings a compact cell would read as another
// kind or cut ("1", "true", "", "null", a tab, a newline), NaN, ±Inf, −0,
// all in one mixed-kind column.
func TestJSONRoundTrip(t *testing.T) {
	g := New()
	for _, v := range []Value{Str("1"), Str("true"), Str(""), Str("null"), Str("a\tb"), Str("a\nb"),
		Num(math.NaN()), Num(math.Inf(1)), Num(math.Inf(-1)), Num(math.Copysign(0, -1)), Int(3), Bool(true), Str("s")} {
		g.AddNode("A", map[string]Value{"mixed": v})
	}
	_ = g.AddEdge(0, 1, "r")
	g.Freeze()
	for _, g := range []*Graph{g, buildSample(t)} {
		var buf bytes.Buffer
		if err := WriteJSON(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadJSON(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := Equivalent(g, g2); err != nil {
			t.Error(err)
		}
	}
}

func TestTSVRoundTrip(t *testing.T) {
	g := buildSample(t)
	var buf bytes.Buffer
	if err := WriteTSV(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
}

func assertSameGraph(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d", a.NumNodes(), a.NumEdges(), b.NumNodes(), b.NumEdges())
	}
	for i := 0; i < a.NumNodes(); i++ {
		v := NodeID(i)
		if a.Label(v) != b.Label(v) {
			t.Fatalf("node %d label %q vs %q", i, a.Label(v), b.Label(v))
		}
		if len(a.Attrs(v)) != len(b.Attrs(v)) {
			t.Fatalf("node %d attrs %v vs %v", i, a.Attrs(v), b.Attrs(v))
		}
		for k, av := range a.Attrs(v) {
			if !b.Attr(v, k).Equal(av) {
				t.Fatalf("node %d attr %s: %v vs %v", i, k, av, b.Attr(v, k))
			}
		}
		if len(a.Out(v)) != len(b.Out(v)) {
			t.Fatalf("node %d out-degree differs", i)
		}
		for j, e := range a.Out(v) {
			e2 := b.Out(v)[j]
			if e.To != e2.To || a.LabelOf(e.Label) != b.LabelOf(e2.Label) {
				t.Fatalf("node %d edge %d differs", i, j)
			}
		}
	}
}

func TestReadTSVErrors(t *testing.T) {
	cases := []string{
		"N\t0",                // missing label
		"N\tx\tA",             // bad id
		"N\t5\tA",             // out of order
		"N\t0\tA\tnoequals",   // bad attribute
		"E\t0\t1",             // short edge
		"N\t0\tA\nE\t0\t9\tx", // edge out of range
		"X\t0",                // unknown record
		"N\t0\tA\nE\ta\t0\tx", // bad from
		"N\t0\tA\nE\t0\tb\tx", // bad to
	}
	for _, c := range cases {
		if _, err := ReadTSV(strings.NewReader(c)); err == nil {
			t.Errorf("ReadTSV(%q) should fail", c)
		}
	}
	// Comments and blank lines are fine.
	g, err := ReadTSV(strings.NewReader("# comment\n\nN\t0\tA\tx=1\n"))
	if err != nil || g.NumNodes() != 1 {
		t.Errorf("comment handling: %v", err)
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{bad")); err == nil {
		t.Error("bad JSON should fail")
	}
	if _, err := ReadJSON(strings.NewReader(`{"nodes":[{"id":3,"label":"A"}]}`)); err == nil {
		t.Error("non-dense ids should fail")
	}
	if _, err := ReadJSON(strings.NewReader(`{"nodes":[{"id":0,"label":"A"}],"edges":[{"from":0,"to":9,"label":"x"}]}`)); err == nil {
		t.Error("edge out of range should fail")
	}
}
