package query

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"fairsqg/internal/graph"
)

func TestNewInstanceValidation(t *testing.T) {
	tpl := talentTemplate(t)
	if _, err := NewInstance(tpl, Instantiation{0, 0}); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := NewInstance(tpl, Instantiation{5, 0, 0}); err == nil {
		t.Error("range level out of bounds accepted")
	}
	// Variable order: x1 (range), x3 (range), e1 (edge).
	if _, err := NewInstance(tpl, Instantiation{0, 0, 2}); err == nil {
		t.Error("edge level 2 accepted")
	}
	q, err := NewInstance(tpl, Instantiation{Wildcard, Wildcard, 0})
	if err != nil {
		t.Fatal(err)
	}
	if q.Key() != "-1,-1,0" {
		t.Errorf("Key = %q", q.Key())
	}
}

func TestInstanceProjection(t *testing.T) {
	tpl := talentTemplate(t)
	// Edge e1 (u1 -> u_o) absent: u1 and u4 fall out of u_o's component.
	q := MustInstance(tpl, Instantiation{1, 1, 0})
	if len(q.ActiveNodes()) != 1 || q.ActiveNodes()[0] != tpl.Output {
		t.Errorf("active nodes = %v", q.ActiveNodes())
	}
	if len(q.ActiveEdges()) != 0 {
		t.Errorf("active edges = %v", q.ActiveEdges())
	}
	if q.NodeActive(tpl.Node("u1")) {
		t.Error("u1 should be inactive")
	}
	// Edge present: everything active (worksAt is fixed).
	q2 := MustInstance(tpl, Instantiation{1, 1, 1})
	if len(q2.ActiveNodes()) != 3 || len(q2.ActiveEdges()) != 2 {
		t.Errorf("active = %v / %v", q2.ActiveNodes(), q2.ActiveEdges())
	}
}

func TestBoundLiterals(t *testing.T) {
	tpl := talentTemplate(t)
	q := MustInstance(tpl, Instantiation{1, Wildcard, 1})
	u1 := tpl.Node("u1")
	lits := q.BoundLiterals(u1)
	if len(lits) != 1 || lits[0].Attr != "yearsOfExp" || !lits[0].Value.Equal(graph.Int(10)) {
		t.Errorf("u1 literals = %v", lits)
	}
	u4 := tpl.Node("u4")
	if lits := q.BoundLiterals(u4); len(lits) != 0 {
		t.Errorf("wildcarded literal bound: %v", lits)
	}
	uo := tpl.Node("u_o")
	lits = q.BoundLiterals(uo)
	if len(lits) != 1 || lits[0].Op != graph.OpEQ || !lits[0].Value.Equal(graph.Str("Director")) {
		t.Errorf("fixed literal lost: %v", lits)
	}
}

func TestInstanceStringAndDescribe(t *testing.T) {
	tpl := talentTemplate(t)
	q := MustInstance(tpl, Instantiation{0, Wildcard, 1})
	s := q.String()
	for _, want := range []string{"x1=5", "x3=_", "e1=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	d := q.Describe()
	for _, want := range []string{"node u_o: Person", "yearsOfExp >= 5", "edge u1 -> u_o : recommend"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe() missing %q:\n%s", want, d)
		}
	}
}

func TestRefinesBasics(t *testing.T) {
	tpl := talentTemplate(t)
	root := MustInstance(tpl, Root(tpl))
	bottom := MustInstance(tpl, Bottom(tpl))
	if !Refines(bottom, root) {
		t.Error("bottom must refine root")
	}
	if Refines(root, bottom) {
		t.Error("root must not refine bottom")
	}
	if !Refines(root, root) {
		t.Error("refinement must be reflexive")
	}
	if !StrictlyRefines(bottom, root) || StrictlyRefines(root, root) {
		t.Error("strict refinement wrong")
	}
	mid := MustInstance(tpl, Instantiation{1, Wildcard, 1})
	if !Refines(mid, root) || !Refines(bottom, mid) {
		t.Error("chain root ≺ mid ≺ bottom broken")
	}
}

func TestRefinesEqualityVariable(t *testing.T) {
	tpl, err := NewBuilder("eq").
		Node("a", "A").RangeVar("g", "a", "genre", graph.OpEQ).
		Output("a").
		SetLadder("g", graph.Str("Action"), graph.Str("Romance")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	wild := MustInstance(tpl, Instantiation{Wildcard})
	action := MustInstance(tpl, Instantiation{0})
	romance := MustInstance(tpl, Instantiation{1})
	if !Refines(action, wild) || !Refines(romance, wild) {
		t.Error("bound EQ must refine wildcard")
	}
	if Refines(action, romance) || Refines(romance, action) {
		t.Error("distinct EQ constants must be incomparable")
	}
}

// TestRefinementPreorder property-checks reflexivity and transitivity
// (Lemma 2 (1)) over random instantiations.
func TestRefinementPreorder(t *testing.T) {
	tpl := talentTemplate(t)
	const seed = 7 // fixed and logged so a failing triple reproduces
	rng := rand.New(rand.NewSource(seed))
	randInst := func() Instantiation {
		in := make(Instantiation, len(tpl.Vars))
		for vi := range tpl.Vars {
			v := &tpl.Vars[vi]
			if v.Kind == EdgeVar {
				in[vi] = rng.Intn(2)
			} else {
				in[vi] = rng.Intn(len(v.Ladder)+1) - 1
			}
		}
		return in
	}
	for trial := 0; trial < 500; trial++ {
		a, b, c := randInst(), randInst(), randInst()
		if !RefinesInstantiation(tpl, a, a) {
			t.Fatalf("seed %d: not reflexive: %v", seed, a)
		}
		if RefinesInstantiation(tpl, a, b) && RefinesInstantiation(tpl, b, c) &&
			!RefinesInstantiation(tpl, a, c) {
			t.Fatalf("seed %d: not transitive: %v %v %v", seed, a, b, c)
		}
	}
}

// TestRefineStepsAreCovers verifies spawned children strictly refine their
// parent by exactly one variable step, and RelaxSteps inverts RefineSteps.
func TestRefineRelaxInverse(t *testing.T) {
	tpl := talentTemplate(t)
	var walk func(in Instantiation, depth int)
	seen := map[string]bool{}
	walk = func(in Instantiation, depth int) {
		if seen[in.Key()] {
			return
		}
		seen[in.Key()] = true
		for _, child := range RefineSteps(tpl, in) {
			if !StrictlyRefinesInstantiation(tpl, in, child) {
				t.Fatalf("child %v does not strictly refine parent %v", child, in)
			}
			diff := 0
			for vi := range in {
				if in[vi] != child[vi] {
					diff++
				}
			}
			if diff != 1 {
				t.Fatalf("child %v differs from %v in %d variables", child, in, diff)
			}
			// The parent must be among the child's relaxations.
			found := false
			for _, par := range RelaxSteps(tpl, child) {
				if par.Key() == in.Key() {
					found = true
				}
			}
			if !found {
				t.Fatalf("RelaxSteps(%v) misses parent %v", child, in)
			}
			walk(child, depth+1)
		}
	}
	walk(Root(tpl), 0)
	// Full lattice: (3+1)*(3+1)*2 = 32 instantiations all reachable.
	if len(seen) != 32 {
		t.Errorf("reached %d lattice nodes, want 32", len(seen))
	}
}

// TestNumRefineSteps: the count agrees with the materialized child list on
// every instantiation of the lattice (chain, equality and edge variables).
func TestNumRefineSteps(t *testing.T) {
	mixed, err := NewBuilder("mixed").
		Node("a", "A").RangeVar("g", "a", "genre", graph.OpEQ).
		Node("b", "B").RangeVar("y", "b", "year", graph.OpLT).
		VarEdge("e", "b", "a", "rel").
		Output("a").
		SetLadder("g", graph.Str("Action"), graph.Str("Romance")).
		SetLadder("y", graph.Int(2000), graph.Int(1990)).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tpl := range []*Template{talentTemplate(t), mixed} {
		in := Root(tpl)
		var walk func(vi int)
		walk = func(vi int) {
			if vi == len(tpl.Vars) {
				if got, want := NumRefineSteps(tpl, in), len(RefineSteps(tpl, in)); got != want {
					t.Errorf("%s %v: NumRefineSteps = %d, len(RefineSteps) = %d", tpl.Name, in, got, want)
				}
				return
			}
			lo, hi := Wildcard, len(tpl.Vars[vi].Ladder)-1
			if tpl.Vars[vi].Kind == EdgeVar {
				lo, hi = 0, 1
			}
			for l := lo; l <= hi; l++ {
				in[vi] = l
				walk(vi + 1)
			}
		}
		walk(0)
	}
}

func TestChainLength(t *testing.T) {
	tpl := talentTemplate(t)
	if got := ChainLength(&tpl.Vars[0]); got != 3 {
		t.Errorf("range chain = %d", got)
	}
	if got := ChainLength(&tpl.Vars[2]); got != 1 {
		t.Errorf("edge chain = %d", got)
	}
}

// TestMonotoneBindings: RefinesBinding must agree with Tightens semantics
// for chain variables (quick property over levels).
func TestRefinesBindingProperty(t *testing.T) {
	tpl := talentTemplate(t)
	v := &tpl.Vars[0] // GE range var, ladder 5,10,15
	f := func(a, b int8) bool {
		la := int(a)%5 - 1 // -1..3 (includes an out-of-range 3; skip)
		lb := int(b)%5 - 1
		if la > 2 || lb > 2 {
			return true
		}
		got := RefinesBinding(v, la, lb)
		// Semantics: b refines a iff a is wildcard or b >= a (ascending GE ladder).
		want := la == Wildcard || (lb != Wildcard && lb >= la)
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
