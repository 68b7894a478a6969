package match

import (
	"math"
	"reflect"
	"testing"

	"fairsqg/internal/graph"
	"fairsqg/internal/query"
)

// indexSelectionGraph covers the shapes index-backed selection must get
// right: duplicate values at range boundaries, attributes missing on some
// nodes of the label, every Value kind (including a mixed-kind column),
// an attribute entirely absent from one label, and an empty label
// neighborhood for provably-empty results.
func indexSelectionGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New()
	// "score" has duplicates at both ends (10, 10, ..., 50, 50), "name"
	// strings, "flag" booleans, "mix" mixes numbers and strings, and both
	// "score" and "name" are missing on some Person nodes.
	add := func(attrs map[string]graph.Value) { g.AddNode("Person", attrs) }
	add(map[string]graph.Value{"score": graph.Int(10), "name": graph.Str("ann"), "flag": graph.Bool(true)})
	add(map[string]graph.Value{"score": graph.Int(10), "name": graph.Str("bob"), "mix": graph.Int(1)})
	add(map[string]graph.Value{"score": graph.Int(20), "name": graph.Str("bob"), "flag": graph.Bool(false)})
	add(map[string]graph.Value{"score": graph.Int(30), "mix": graph.Str("x")})
	add(map[string]graph.Value{"score": graph.Int(50), "name": graph.Str("eve")})
	add(map[string]graph.Value{"score": graph.Int(50), "mix": graph.Num(math.NaN())})
	add(map[string]graph.Value{"name": graph.Str("ann")})
	add(nil)
	g.AddNode("Org", map[string]graph.Value{"employees": graph.Int(10)})
	g.Freeze()
	return g
}

// checkSelection asserts that selectCandidates (index or fallback) and
// scanCandidates both return exactly the label's nodes that pass every
// literal of raw, in ascending NodeID order.
func checkSelection(t *testing.T, m *Matcher, label string, raw []query.BoundLiteral) {
	t.Helper()
	lits := query.CompileLiterals(m.G, raw)
	base := m.G.NodesByLabel(label)
	want := []graph.NodeID{}
next:
	for _, v := range base {
		for _, l := range lits {
			if !l.Matches(m.G, v) {
				continue next
			}
		}
		want = append(want, v)
	}
	if got := m.selectCandidates(label, lits); !reflect.DeepEqual(got, want) {
		t.Errorf("%s%v: selectCandidates %v, filter %v", label, raw, got, want)
	}
	if got := m.scanCandidates(base, lits); !reflect.DeepEqual(got, want) {
		t.Errorf("%s%v: scanCandidates %v, filter %v", label, raw, got, want)
	}
}

// TestIndexSelectionMatchesScan sweeps every operator, every value kind,
// missing attributes, boundary duplicates and empty results through both
// access paths, then every ladder value of the 300-node random fixture's
// range variables, each of which must land on both sides of
// indexScanCutoff.
func TestIndexSelectionMatchesScan(t *testing.T) {
	g := indexSelectionGraph(t)
	m := New(g)
	bounds := map[string][]graph.Value{
		"score": {graph.Int(5), graph.Int(10), graph.Int(15), graph.Int(20),
			graph.Int(50), graph.Int(99), graph.Null, graph.Num(math.NaN())},
		"name": {graph.Str(""), graph.Str("ann"), graph.Str("bob"), graph.Str("zzz"), graph.Null},
		"flag": {graph.Bool(false), graph.Bool(true), graph.Null},
		"mix":  {graph.Int(1), graph.Str("x"), graph.Num(math.NaN()), graph.Null},
		// "employees" never occurs on Person: the uniform-literal shortcut
		// must prove the result empty or pass everything through.
		"employees": {graph.Int(10), graph.Null},
	}
	ops := []graph.Op{graph.OpLT, graph.OpLE, graph.OpEQ, graph.OpGE, graph.OpGT}
	for attr, bs := range bounds {
		for _, op := range ops {
			for _, bound := range bs {
				checkSelection(t, m, "Person", []query.BoundLiteral{{Attr: attr, Op: op, Value: bound}})
			}
		}
	}
	// Conjunctions: the most selective literal drives the gather and the
	// rest verify against columns.
	for _, raw := range [][]query.BoundLiteral{
		{{Attr: "score", Op: graph.OpGE, Value: graph.Int(20)}, {Attr: "name", Op: graph.OpEQ, Value: graph.Str("bob")}},
		{{Attr: "score", Op: graph.OpLE, Value: graph.Int(10)}, {Attr: "flag", Op: graph.OpEQ, Value: graph.Bool(true)}},
		{{Attr: "employees", Op: graph.OpGE, Value: graph.Int(1)}, {Attr: "score", Op: graph.OpGT, Value: graph.Int(15)}},
		{{Attr: "score", Op: graph.OpGT, Value: graph.Int(99)}, {Attr: "name", Op: graph.OpEQ, Value: graph.Str("ann")}},
	} {
		checkSelection(t, m, "Person", raw)
	}
	if m.Stats.IndexSelections == 0 || m.Stats.ScanSelections == 0 {
		t.Errorf("hand-built fixture: %d index selections, %d fallbacks; want both", m.Stats.IndexSelections, m.Stats.ScanSelections)
	}

	rg := randomGraph(t, 300, 900, differentialSeed)
	tpl := randomTemplate(t, rg)
	rm := New(rg)
	for _, v := range tpl.Vars {
		if v.Kind == query.EdgeVar {
			continue
		}
		for _, bound := range v.Ladder {
			checkSelection(t, rm, tpl.Nodes[v.Node].Label, []query.BoundLiteral{{Attr: v.Attr, Op: v.Op, Value: bound}})
		}
	}
	if rm.Stats.IndexSelections == 0 || rm.Stats.ScanSelections == 0 {
		t.Errorf("random fixture ladders: %d index selections, %d fallbacks; want both", rm.Stats.IndexSelections, rm.Stats.ScanSelections)
	}
}

// TestIndexSelectionOrdering asserts index-gathered candidates come back
// in ascending NodeID order (the permutation is value-ordered, so the
// re-sort is load-bearing for the byte-identical contract).
func TestIndexSelectionOrdering(t *testing.T) {
	g := indexSelectionGraph(t)
	m := New(g)
	lits := query.CompileLiterals(g, []query.BoundLiteral{
		{Attr: "score", Op: graph.OpGE, Value: graph.Int(50)},
	})
	got := m.selectCandidates("Person", lits)
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("candidates out of NodeID order: %v", got)
		}
	}
	if m.Stats.IndexSelections != 1 {
		t.Fatalf("expected the index path, stats: %+v", m.Stats)
	}
}
