package query

import (
	"strings"
	"testing"

	"fairsqg/internal/graph"
)

// talentTemplate builds the paper's Fig. 1 template with explicit ladders.
func talentTemplate(t *testing.T) *Template {
	t.Helper()
	tpl, err := NewBuilder("talent").
		Node("u_o", "Person").Literal("u_o", "title", graph.OpEQ, graph.Str("Director")).
		Node("u1", "Person").RangeVar("x1", "u1", "yearsOfExp", graph.OpGE).
		Node("u4", "Org").RangeVar("x3", "u4", "employees", graph.OpGE).
		VarEdge("e1", "u1", "u_o", "recommend").
		Edge("u1", "u4", "worksAt").
		Output("u_o").
		SetLadder("x1", graph.Int(5), graph.Int(10), graph.Int(15)).
		SetLadder("x3", graph.Int(100), graph.Int(500), graph.Int(1000)).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return tpl
}

func TestBuilderAndValidate(t *testing.T) {
	tpl := talentTemplate(t)
	if tpl.NumRangeVars() != 2 || tpl.NumEdgeVars() != 1 {
		t.Errorf("|X_L|=%d |X_E|=%d", tpl.NumRangeVars(), tpl.NumEdgeVars())
	}
	if tpl.Node("u1") != 1 || tpl.Node("missing") != -1 {
		t.Error("Node lookup wrong")
	}
	if tpl.Var("x3") < 0 || tpl.Var("zz") != -1 {
		t.Error("Var lookup wrong")
	}
	// (3+1)*(3+1)*2 = 32 instantiations.
	if got := tpl.InstanceSpaceSize(); got != 32 {
		t.Errorf("InstanceSpaceSize = %d, want 32", got)
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*Template, error)
	}{
		{"duplicate node", func() (*Template, error) {
			return NewBuilder("t").Node("a", "A").Node("a", "A").Output("a").Build()
		}},
		{"unknown literal node", func() (*Template, error) {
			return NewBuilder("t").Node("a", "A").Literal("b", "x", graph.OpEQ, graph.Int(1)).Output("a").Build()
		}},
		{"unknown edge endpoint", func() (*Template, error) {
			return NewBuilder("t").Node("a", "A").Edge("a", "b", "e").Output("a").Build()
		}},
		{"duplicate variable", func() (*Template, error) {
			return NewBuilder("t").Node("a", "A").
				RangeVar("x", "a", "p", graph.OpGE).RangeVar("x", "a", "q", graph.OpGE).Output("a").Build()
		}},
		{"no output", func() (*Template, error) {
			return NewBuilder("t").Node("a", "A").Build()
		}},
		{"unknown output", func() (*Template, error) {
			return NewBuilder("t").Node("a", "A").Output("b").Build()
		}},
		{"disconnected", func() (*Template, error) {
			return NewBuilder("t").Node("a", "A").Node("b", "B").Output("a").Build()
		}},
		{"unknown ladder var", func() (*Template, error) {
			return NewBuilder("t").Node("a", "A").SetLadder("x", graph.Int(1)).Output("a").Build()
		}},
		{"ladder on edge var", func() (*Template, error) {
			return NewBuilder("t").Node("a", "A").Node("b", "B").
				VarEdge("e", "a", "b", "r").SetLadder("e", graph.Int(1)).Output("a").Build()
		}},
	}
	for _, c := range cases {
		if _, err := c.build(); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestBindDomains(t *testing.T) {
	g := graph.New()
	for _, years := range []int64{3, 12, 7, 3, 20} {
		g.AddNode("Person", map[string]graph.Value{"yearsOfExp": graph.Int(years)})
	}
	g.AddNode("Org", map[string]graph.Value{"employees": graph.Int(50)})
	g.AddNode("Org", map[string]graph.Value{"employees": graph.Int(900)})
	// Connect with at least one edge of each label so templates validate.
	_ = g.AddEdge(0, 1, "recommend")
	_ = g.AddEdge(0, 5, "worksAt")
	g.Freeze()

	tpl, err := NewBuilder("t").
		Node("u_o", "Person").
		Node("u1", "Person").RangeVar("up", "u1", "yearsOfExp", graph.OpGE).
		Node("o", "Org").RangeVar("down", "o", "employees", graph.OpLE).
		Edge("u1", "u_o", "recommend").
		Edge("u1", "o", "worksAt").
		Output("u_o").Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := tpl.BindDomains(g, DomainOptions{}); err != nil {
		t.Fatal(err)
	}
	up := tpl.Vars[tpl.Var("up")]
	wantUp := []int64{3, 7, 12, 20}
	if len(up.Ladder) != len(wantUp) {
		t.Fatalf("GE ladder = %v", up.Ladder)
	}
	for i, w := range wantUp {
		if !up.Ladder[i].Equal(graph.Int(w)) {
			t.Errorf("GE ladder[%d] = %v, want %d (ascending, deduped)", i, up.Ladder[i], w)
		}
	}
	down := tpl.Vars[tpl.Var("down")]
	// LE ladders are descending: most relaxed (largest) first.
	if !down.Ladder[0].Equal(graph.Int(900)) || !down.Ladder[1].Equal(graph.Int(50)) {
		t.Errorf("LE ladder = %v", down.Ladder)
	}
}

func TestBindDomainsEmptyDomain(t *testing.T) {
	g := graph.New()
	g.AddNode("Person", nil)
	g.AddNode("Person", nil)
	_ = g.AddEdge(0, 1, "recommend")
	g.Freeze()
	tpl, err := NewBuilder("t").
		Node("a", "Person").Node("b", "Person").
		RangeVar("x", "b", "salary", graph.OpGE).
		Edge("b", "a", "recommend").Output("a").Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := tpl.BindDomains(g, DomainOptions{}); err == nil {
		t.Error("expected error for empty active domain")
	}
}

func TestBindDomainsSubsample(t *testing.T) {
	g := graph.New()
	for i := 0; i < 100; i++ {
		g.AddNode("Person", map[string]graph.Value{"yearsOfExp": graph.Int(int64(i))})
	}
	_ = g.AddEdge(0, 1, "recommend")
	g.Freeze()
	tpl, err := NewBuilder("t").
		Node("a", "Person").Node("b", "Person").
		RangeVar("x", "b", "yearsOfExp", graph.OpGE).
		Edge("b", "a", "recommend").Output("a").Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := tpl.BindDomains(g, DomainOptions{MaxValues: 10}); err != nil {
		t.Fatal(err)
	}
	lad := tpl.Vars[0].Ladder
	if len(lad) != 10 {
		t.Fatalf("subsampled ladder has %d values", len(lad))
	}
	if !lad[0].Equal(graph.Int(0)) || !lad[9].Equal(graph.Int(99)) {
		t.Errorf("subsample must keep extremes: %v", lad)
	}
	for i := 1; i < len(lad); i++ {
		if lad[i].Compare(lad[i-1]) <= 0 {
			t.Errorf("subsampled ladder not strictly ascending: %v", lad)
		}
	}
	// A cap of 1 keeps one value, the median — not the whole domain.
	if err := tpl.BindDomains(g, DomainOptions{MaxValues: 1}); err != nil {
		t.Fatal(err)
	}
	if lad := tpl.Vars[0].Ladder; len(lad) != 1 || !lad[0].Equal(graph.Int(49)) {
		t.Errorf("ladder under a cap of 1 = %v, want [49]", lad)
	}
	// And no cap, or one the domain fits in, keeps all of it.
	for _, max := range []int{0, 100, 1000} {
		if err := tpl.BindDomains(g, DomainOptions{MaxValues: max}); err != nil {
			t.Fatal(err)
		}
		if n := len(tpl.Vars[0].Ladder); n != 100 {
			t.Errorf("MaxValues %d: ladder has %d values, want 100", max, n)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	src := `
# talent search template
template talent
node u_o Person title = "Director"
node u1 Person yearsOfExp >= $x1
node u4 Org employees >= $x3 , industry = Software
edge u1 u_o recommend ?e1
edge u1 u4 worksAt
output u_o
`
	tpl, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if tpl.Name != "talent" || len(tpl.Nodes) != 3 || len(tpl.Edges) != 2 {
		t.Fatalf("parsed template = %+v", tpl)
	}
	if tpl.NumRangeVars() != 2 || tpl.NumEdgeVars() != 1 {
		t.Errorf("|X_L|=%d |X_E|=%d", tpl.NumRangeVars(), tpl.NumEdgeVars())
	}
	// The fixed literal on u4 must have survived with a string constant.
	u4 := tpl.Nodes[tpl.Node("u4")]
	found := false
	for _, l := range u4.Literals {
		if !l.Parameterized() && l.Attr == "industry" && l.Const.Equal(graph.Str("Software")) {
			found = true
		}
	}
	if !found {
		t.Error("fixed literal industry = Software missing")
	}
	// Round-trip through Format.
	tpl2, err := ParseString(Format(tpl))
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, Format(tpl))
	}
	if Format(tpl2) != Format(tpl) {
		t.Errorf("Format not stable:\n%s\nvs\n%s", Format(tpl), Format(tpl2))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"node a A",                             // before template
		"template t\ntemplate t2",              // duplicate
		"template t\nnode a",                   // short node
		"template t\nnode a A x >",             // incomplete predicate
		"template t\nnode a A x ! 3",           // bad op
		"template t\nnode a A x = $",           // empty var
		"template t\nnode a A x = 1 y = 2",     // missing comma
		"template t\nedge a b",                 // short edge
		"template t\nnode a A\noutput",         // short output
		"template t\nnode a A\nwhat a",         // unknown directive
		"template t\nnode a A \"unterminated",  // bad string
		"template t\nnode a A\nedge a a e ?",   // empty edge var
		"template t\nnode a A\nedge a a e x y", // long edge
		"",                                     // no template
	}
	for _, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("ParseString(%q) should fail", src)
		}
	}
}

func TestQuoteIfNeeded(t *testing.T) {
	// Strings that would reparse as numbers must be quoted by Format.
	tpl, err := NewBuilder("t").
		Node("a", "A").Literal("a", "code", graph.OpEQ, graph.Str("123")).
		Output("a").Build()
	if err != nil {
		t.Fatal(err)
	}
	out := Format(tpl)
	if !strings.Contains(out, `"123"`) {
		t.Errorf("numeric-looking string not quoted:\n%s", out)
	}
	tpl2, err := ParseString(out)
	if err != nil {
		t.Fatal(err)
	}
	l := tpl2.Nodes[0].Literals[0]
	if l.Const.Kind() != graph.KindString {
		t.Errorf("round-tripped constant kind = %v", l.Const.Kind())
	}
}

func TestAlwaysActive(t *testing.T) {
	tpl := talentTemplate(t) // u1->u_o is an edge variable, u1->u4 fixed
	got := tpl.AlwaysActive()
	// Only the output survives: u1 and u4 hang off the parameterized edge.
	if len(got) != 1 || got[0] != tpl.Output {
		t.Fatalf("AlwaysActive = %v", got)
	}
	// With every edge fixed, everything is always active.
	tpl2, err := NewBuilder("fixed").
		Node("a", "A").Node("b", "B").Node("c", "C").
		Edge("a", "b", "e").Edge("b", "c", "f").
		Output("a").Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := tpl2.AlwaysActive(); len(got) != 3 {
		t.Fatalf("AlwaysActive = %v", got)
	}
}
