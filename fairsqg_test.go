package fairsqg

import (
	"bytes"
	"strings"
	"testing"
)

// publicFixture builds a small dataset + template + groups through the
// public API only.
func publicFixture(t *testing.T) (*Graph, *Template, Groups) {
	t.Helper()
	g, err := BuildDataset(DatasetLKI, DatasetOptions{Nodes: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tpl := TalentTemplate()
	if err := tpl.BindDomains(g, DomainOptions{MaxValues: 4}); err != nil {
		t.Fatal(err)
	}
	set := EqualOpportunity(GroupsByAttribute(g, "Person", "gender"), 5)
	return g, tpl, set
}

func TestPublicAPIEndToEnd(t *testing.T) {
	g, tpl, set := publicFixture(t)
	gen, err := NewGenerator(&Config{G: g, Template: tpl, Groups: set, Eps: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Bidirectional()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set) == 0 {
		t.Fatal("BiQGen produced nothing via public API")
	}
	// The returned instances answer consistently through the standalone
	// Answer helper.
	for _, v := range res.Set {
		ans := Answer(g, v.Q)
		if len(ans) != len(v.Matches) {
			t.Errorf("Answer() size %d != stored %d", len(ans), len(v.Matches))
		}
		if !Feasible(set, ans) {
			t.Error("returned instance infeasible")
		}
		if Coverage(set, ans) != v.Point.Cov {
			t.Error("coverage mismatch")
		}
	}
	// Indicators work over public points.
	ref, err := gen.AllFeasible()
	if err != nil {
		t.Fatal(err)
	}
	refPts := make([]Point, len(ref))
	for i, v := range ref {
		refPts[i] = v.Point
	}
	if ie := EpsIndicator(res.Points(), refPts, 0.1); ie < 0 || ie > 1 {
		t.Errorf("I_ε = %v", ie)
	}
	if ir := RIndicator(res.Points(), 0.5, 10, 10); ir < 0 || ir > 1 {
		t.Errorf("I_R = %v", ir)
	}
}

func TestPublicTemplateDSL(t *testing.T) {
	tpl, err := ParseTemplate(`
template demo
node a Person title = "Director"
node b Person yearsOfExp >= $x
edge b a recommend ?e
output a
`)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatTemplate(tpl)
	if !strings.Contains(out, "template demo") {
		t.Errorf("FormatTemplate:\n%s", out)
	}
	// Builder path produces an equivalent template.
	tpl2, err := NewTemplate("demo").
		Node("a", "Person").Literal("a", "title", OpEQ, Str("Director")).
		Node("b", "Person").RangeVar("x", "b", "yearsOfExp", OpGE).
		VarEdge("e", "b", "a", "recommend").
		Output("a").Build()
	if err != nil {
		t.Fatal(err)
	}
	if FormatTemplate(tpl2) != out {
		t.Errorf("builder and DSL disagree:\n%s\nvs\n%s", out, FormatTemplate(tpl2))
	}
}

func TestPublicGraphIO(t *testing.T) {
	g := NewGraph()
	a := g.AddNode("Person", map[string]Value{"name": Str("ann"), "age": Int(30)})
	b := g.AddNode("Person", map[string]Value{"name": Str("bob")})
	if err := g.AddEdge(a, b, "knows"); err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	var buf bytes.Buffer
	if err := WriteGraphTSV(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraphTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != 2 || g2.NumEdges() != 1 {
		t.Error("TSV round trip lost data")
	}
	buf.Reset()
	if err := WriteGraphJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadGraphJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if s := SummarizeGraph(g); s.Nodes != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestPublicOnline(t *testing.T) {
	g, tpl, set := publicFixture(t)
	gen, err := NewGenerator(&Config{G: g, Template: tpl, Groups: set, Eps: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Online(NewRandomStream(tpl, 60, 3), OnlineOptions{K: 4, Window: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set) == 0 || len(res.Set) > 4 {
		t.Errorf("online set size %d", len(res.Set))
	}
	// SliceStream replays specific instances.
	root := RootInstance(tpl)
	res2, err := gen.Online(NewSliceStream([]*Instance{root}), OnlineOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Processed != 1 {
		t.Errorf("processed %d", res2.Processed)
	}
}

func TestPublicGroupHelpers(t *testing.T) {
	g, _, _ := publicFixture(t)
	set := GroupsByValues(g, "Person", "gender", "male", "female")
	if len(set) != 2 {
		t.Fatalf("groups = %d", len(set))
	}
	set = SplitCoverageEvenly(set, 7)
	if set[0].Want+set[1].Want != 7 {
		t.Error("split wrong")
	}
	if _, err := DisparateImpact(set, "gender=male", 10, 0.8); err != nil {
		t.Fatal(err)
	}
	if _, err := DisparateImpact(set, "nope", 10, 0.8); err == nil {
		t.Error("bad majority accepted")
	}
}

func TestPublicTemplateGenerators(t *testing.T) {
	g, err := BuildDataset(DatasetCite, DatasetOptions{Nodes: 1500, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	tpl, err := GenerateTemplate(DatasetCite, TemplateParams{Size: 3, RangeVars: 1, EdgeVars: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := tpl.BindDomains(g, DomainOptions{MaxValues: 5}); err != nil {
		t.Fatal(err)
	}
	got, err := GenerateFeasibleTemplate(g, DatasetCite,
		TemplateParams{Size: 3, RangeVars: 1, EdgeVars: 1, Seed: 4}, 5, 10,
		func(t *Template) bool { return true })
	if err != nil || got == nil {
		t.Fatal(err)
	}
	// Canonical templates exist for each dataset.
	for _, tp := range []*Template{TalentTemplate(), MovieTemplate(), PaperTemplate()} {
		if err := tp.Validate(); err != nil {
			t.Error(err)
		}
	}
	// MakeInstance validates arity.
	if _, err := MakeInstance(TalentTemplate(), Instantiation{0}); err == nil {
		t.Error("bad arity accepted")
	}
}

// TestPublicRPQ: an RPQ template lowered with NewRPQConfig runs on the same
// Generator as a subgraph template, under every name Algorithms lists.
func TestPublicRPQ(t *testing.T) {
	g, err := BuildDataset(DatasetCite, DatasetOptions{Nodes: 1500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	expr, err := ParsePathExpr("cites|cites/cites")
	if err != nil {
		t.Fatal(err)
	}
	tpl, err := NewRPQTemplate("influence", "Paper", expr, []int{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	tpl.AddVar("minYear", "year", OpGE)
	if err := tpl.BindDomains(g, 3); err != nil {
		t.Fatal(err)
	}
	cfg, err := NewRPQConfig(g, tpl)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Groups = EqualOpportunity(GroupsByValues(g, "Paper", "topic", "MachineLearning", "Databases"), 5)
	cfg.Eps = 0.1
	if got := cfg.Template.InstanceSpaceSize(); got != 4*4*2 {
		t.Fatalf("instance space = %d", got)
	}
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Algorithms() {
		res, err := gen.Run(name, 2)
		if err != nil || len(res.Set) == 0 {
			t.Fatalf("%s: %v, %v", name, res, err)
		}
		for _, v := range res.Set {
			if !Feasible(cfg.Groups, v.Matches) || !strings.Contains(tpl.Describe(v.Q.I), "path=") {
				t.Errorf("%s returned %s with %d targets", name, tpl.Describe(v.Q.I), len(v.Matches))
			}
		}
	}
	if _, err := gen.Run("zz", 0); err == nil {
		t.Error("unknown algorithm name accepted")
	}
}
