package core

import (
	"slices"
	"testing"

	"fairsqg/internal/graph"
	"fairsqg/internal/groups"
	"fairsqg/internal/match"
	"fairsqg/internal/pareto"
	"fairsqg/internal/query"
)

// multiOutputConfig builds a template where the recommender u1 is wired to
// the output via a FIXED edge (so it is always active) plus a
// parameterized coreview branch, and marks u1 as a second output: the
// answer is the union of matched directors and matched recommenders.
func multiOutputConfig(t *testing.T, seed int64) *Config {
	t.Helper()
	g := fixtureGraph(t, seed)
	tpl, err := query.NewBuilder("multi").
		Node("u_o", "Person").Literal("u_o", "title", graph.OpEQ, graph.Str("Director")).
		Node("u1", "Person").RangeVar("x1", "u1", "yearsOfExp", graph.OpGE).
		Node("u2", "Person").
		Node("o", "Org").RangeVar("x2", "o", "employees", graph.OpGE).
		Edge("u1", "u_o", "recommend").
		Edge("u1", "o", "worksAt").
		VarEdge("e1", "u2", "u_o", "coreview").
		Output("u_o").Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := tpl.BindDomains(g, query.DomainOptions{MaxValues: 4}); err != nil {
		t.Fatal(err)
	}
	set := groups.EqualOpportunity(groups.ByAttribute(g, "Person", "gender"), 3)
	return &Config{G: g, Template: tpl, Groups: set, Eps: 0.3, ExtraOutputs: []string{"u1"}}
}

func TestMultiOutputValidation(t *testing.T) {
	cfg := multiOutputConfig(t, 50)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid multi-output config rejected: %v", err)
	}
	bad := *cfg
	bad.ExtraOutputs = []string{"nope"}
	if err := bad.Validate(); err == nil {
		t.Error("unknown extra output accepted")
	}
	bad = *cfg
	bad.ExtraOutputs = []string{"u_o"}
	if err := bad.Validate(); err == nil {
		t.Error("duplicate output accepted")
	}
	// A node behind an edge variable is rejected: its activation
	// mid-refinement would break the union's monotonicity.
	bad = *cfg
	bad.ExtraOutputs = []string{"u2"}
	if err := bad.Validate(); err == nil {
		t.Error("edge-variable-gated extra output accepted")
	}
}

// TestMultiOutputUnion: the answer is exactly the union of the per-node
// match sets, and per-node sets match independent evaluation.
func TestMultiOutputUnion(t *testing.T) {
	cfg := multiOutputConfig(t, 51)
	r := newRunnerT(t, cfg)
	root := query.MustInstance(cfg.Template, query.Root(cfg.Template))
	v := r.verify(root, nil)
	if v.PerNode == nil {
		t.Fatal("PerNode missing in multi-output mode")
	}
	union := map[int32]bool{}
	for _, set := range v.PerNode {
		for _, m := range set {
			union[int32(m)] = true
		}
	}
	if len(union) != len(v.Matches) {
		t.Fatalf("union size %d != matches %d", len(union), len(v.Matches))
	}
	for _, m := range v.Matches {
		if !union[int32(m)] {
			t.Fatal("matches not the union of per-node sets")
		}
	}
	// Per-node sets agree with independent single-node evaluation.
	u1 := cfg.Template.Node("u1")
	indep := match.New(cfg.G).EvalNode(root, u1)
	got := v.PerNode[u1]
	if len(indep) != len(got) {
		t.Fatalf("u1 matches differ: %d vs %d", len(got), len(indep))
	}
}

// TestMultiOutputGeneration: the full pipeline stays valid — every
// algorithm returns ε-Pareto sets over the multi-output objective. (That
// each inheritance setting gives the oracle's archive is the equivalence
// generator's multi-output axis, internal/match.)
func TestMultiOutputGeneration(t *testing.T) {
	cfg := multiOutputConfig(t, 52)
	ref, err := newRunnerT(t, cfg).AllFeasible()
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) == 0 {
		t.Fatal("no feasible multi-output instances")
	}
	refPoints := make([]pareto.Point, len(ref))
	for i, v := range ref {
		refPoints[i] = v.Point
	}
	for _, alg := range []struct {
		name string
		run  func(*Runner) (*Result, error)
	}{
		{"RfQGen", (*Runner).RfQGen},
		{"BiQGen", (*Runner).BiQGen},
	} {
		res, err := alg.run(newRunnerT(t, cfg))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Set) == 0 {
			t.Fatalf("%s: empty", alg.name)
		}
		if em := pareto.MinEps(res.Points(), refPoints); em > cfg.Eps+1e-9 {
			t.Errorf("%s: ε_m = %v", alg.name, em)
		}
	}
}

// TestMultiOutputMonotone: per-node match sets shrink along refinement.
func TestMultiOutputMonotone(t *testing.T) {
	cfg := multiOutputConfig(t, 53)
	r := newRunnerT(t, cfg)
	rootIn := query.Root(cfg.Template)
	root := r.verify(query.MustInstance(cfg.Template, rootIn), nil)
	for _, childIn := range query.RefineSteps(cfg.Template, rootIn) {
		child := r.verify(query.MustInstance(cfg.Template, childIn), root)
		for ni, childSet := range child.PerNode {
			parentSet := map[int32]bool{}
			for _, m := range root.PerNode[ni] {
				parentSet[int32(m)] = true
			}
			for _, m := range childSet {
				if !parentSet[int32(m)] {
					t.Fatalf("node %d gained match %d under refinement", ni, m)
				}
			}
		}
	}
}

// TestMultiOutputActivatedNode: a designated node the parent left inactive
// has a nil PerNode entry there, and the edge-variable step that activates
// it evaluates it from scratch. Validate keeps such a node out of
// ExtraOutputs, so the runner is given it directly.
func TestMultiOutputActivatedNode(t *testing.T) {
	g := fixtureGraph(t, 51)
	tpl, err := query.NewBuilder("gated").
		Node("u_o", "Person").Literal("u_o", "title", graph.OpEQ, graph.Str("Director")).
		Node("u1", "Person").RangeVar("x1", "u1", "yearsOfExp", graph.OpGE).
		Node("u2", "Person").
		Edge("u1", "u_o", "recommend").
		VarEdge("e1", "u2", "u1", "recommend").
		Output("u_o").Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := tpl.BindDomains(g, query.DomainOptions{MaxValues: 4}); err != nil {
		t.Fatal(err)
	}
	set := groups.EqualOpportunity(groups.ByAttribute(g, "Person", "gender"), 3)
	r := newRunnerT(t, &Config{G: g, Template: tpl, Groups: set, Eps: 0.3, ExtraOutputs: []string{"u1"}})
	u2 := tpl.Node("u2")
	r.extraNodes = append(r.extraNodes, u2)

	rootIn := query.Root(tpl)
	root := r.verify(query.MustInstance(tpl, rootIn), nil)
	if root.Q.NodeActive(u2) || root.PerNode[u2] != nil {
		t.Fatalf("u2 at the root: active=%v, PerNode=%v; want inactive and nil", root.Q.NodeActive(u2), root.PerNode[u2])
	}
	childIn := rootIn.Clone()
	childIn[tpl.Var("e1")] = 1
	child := r.verify(query.MustInstance(tpl, childIn), root)
	if !child.Q.NodeActive(u2) {
		t.Fatal("e1 did not activate u2")
	}
	want := match.New(g).EvalNode(child.Q, u2)
	if len(want) == 0 {
		t.Fatal("fixture: u2 has no matches once active")
	}
	if got := child.PerNode[u2]; !slices.Equal(got, want) {
		t.Errorf("activated node's matches = %v, want the from-scratch %v", got, want)
	}
	for _, m := range want {
		if !slices.Contains(child.Matches, m) {
			t.Fatalf("union misses activated node's match %d", m)
		}
	}
}
