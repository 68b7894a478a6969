package match

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"fairsqg/internal/graph"
	"fairsqg/internal/query"
)

// shapeTemplates are the four template shapes the benchmark's workloads use
// (benchmark/templates), over randomGraph's schema. Between them: literal
// steps of every operator, edge variables that activate one node, two nodes
// at once (chain: e1 brings u2 and o with it when e2 is on already) or none
// (cycle: the closing edge joins two nodes the plan had), and an edge that
// is present but outside the output's component (chain: e2 without e1).
var shapeTemplates = map[string]string{
	"star": `template star
node u_o Person
node u1 Person yearsOfExp >= $x1
node u2 Person yearsOfExp <= $x2
node o Org employees >= $x3
edge u1 u_o recommend
edge u_o u2 recommend ?e1
edge u_o o worksAt ?e2
output u_o
`,
	"chain": `template chain
node u_o Person yearsOfExp >= $x1
node u1 Person
node u2 Person yearsOfExp >= $x2
node o Org
edge u1 u_o recommend
edge u2 u1 recommend ?e1
edge u2 o worksAt ?e2
output u_o
`,
	"tree": `template tree
node u_o Person
node u1 Person yearsOfExp >= $x1
node u2 Person
node o Org employees >= $x2
node u3 Person yearsOfExp = $x3
edge u1 u_o recommend
edge u2 u1 recommend ?e1
edge u1 o worksAt ?e2
edge u_o u3 recommend ?e3
output u_o
`,
	"cycle": `template cycle
node u_o Person yearsOfExp >= $x1
node u1 Person
node u2 Person yearsOfExp <= $x2
edge u_o u1 recommend
edge u1 u2 recommend ?e1
edge u2 u_o recommend ?e2
output u_o
`,
}

func shapeTemplate(t testing.TB, name string, g *graph.Graph) *query.Template {
	t.Helper()
	tpl, err := query.ParseString(shapeTemplates[name])
	if err != nil {
		t.Fatal(err)
	}
	if err := tpl.BindDomains(g, query.DomainOptions{MaxValues: 3}); err != nil {
		t.Fatal(err)
	}
	return tpl
}

// planSets copies a plan's candidate sets out of the matcher's arena,
// indexed by template node (nil where inactive, and for a nil plan), after
// checking that the bitset form mirrors the slice form.
func planSets(t *testing.T, m *Matcher, p *plan) [][]graph.NodeID {
	t.Helper()
	if p == nil {
		return nil
	}
	sets := make([][]graph.NodeID, len(p.q.T.Nodes))
	for i, ni := range p.nodes {
		sets[ni] = slices.Clone(p.cands[i])
		if p.candBits[i].Len() == 0 {
			continue
		}
		if got := p.candBits[i].Count(); got != len(p.cands[i]) {
			t.Fatalf("%s node %d: bitset holds %d, slice %d", p.q, ni, got, len(p.cands[i]))
		}
		for _, v := range p.cands[i] {
			if !p.inSet(i, m.labelPos.At(int(v))) {
				t.Fatalf("%s node %d: candidate %d missing from the bitset", p.q, ni, v)
			}
		}
	}
	return sets
}

// captureDomains returns the domains q's plan ends with under within and
// seed, or nil when q has no plan.
func captureDomains(g *graph.Graph, mode Mode, q *query.Instance, within []graph.NodeID, seed *Domains) *Domains {
	m := New(g)
	m.Mode = mode
	p := m.buildPlan(q, q.T.Output, within, seed)
	if p == nil {
		return nil
	}
	d := new(Domains)
	d.capture(m, p, within != nil)
	return d
}

// TestSeedIgnoredUnlessRefined: domains seed only refinements of their
// instance, pinned at the node they were captured under, and without a
// within set only if captured without one; anything else plans from
// scratch, as does a released buffer.
func TestSeedIgnoredUnlessRefined(t *testing.T) {
	g := randomGraph(t, 220, 1100, differentialSeed)
	tpl := shapeTemplate(t, "cycle", g)
	all := allInstantiations(tpl)
	mid := query.MustInstance(tpl, all[len(all)/2])
	d := captureDomains(g, Isomorphism, mid, nil, nil)
	if d == nil {
		t.Fatal("fixture: the middle of the lattice has no plan")
	}
	for _, in := range all {
		q := query.MustInstance(tpl, in)
		for node := range tpl.Nodes {
			if !q.NodeActive(node) {
				continue
			}
			m := New(g)
			p := m.buildPlan(q, node, nil, d)
			used := m.Stats.IndexSelections+m.Stats.ScanSelections == 0
			if want := node == tpl.Output && query.Refines(q, mid); used != want && p != nil {
				t.Errorf("%s pinned at %d seeded from %s: seed used = %v, want %v", q, node, mid, used, want)
			}
			if want := planSets(t, m, New(g).buildPlan(q, node, nil, nil)); !reflect.DeepEqual(planSets(t, m, p), want) {
				t.Errorf("%s pinned at %d: sets differ from scratch under a seed of %s", q, node, mid)
			}
		}
	}
	// Domains captured under a within set hold nothing outside it: they seed
	// plans under a within set, and are ignored — not trusted to be wide
	// enough — by a plan without one.
	half := New(g).EvalOutput(mid)
	half = half[:len(half)/2]
	narrow := captureDomains(g, Isomorphism, mid, half, nil)
	if len(half) == 0 || narrow == nil {
		t.Fatal("fixture: the middle of the lattice has no plan under half its matches")
	}
	for _, in := range all {
		q := query.MustInstance(tpl, in)
		if !query.Refines(q, mid) {
			continue
		}
		for _, within := range [][]graph.NodeID{nil, half} {
			m := New(g)
			p := m.buildPlan(q, tpl.Output, within, narrow)
			if used := m.Stats.IndexSelections+m.Stats.ScanSelections == 0; used != (within != nil) && p != nil {
				t.Errorf("%s (within=%v) under a narrowed seed: seed used = %v", q, within != nil, used)
			}
			if want := planSets(t, m, New(g).buildPlan(q, tpl.Output, within, nil)); !reflect.DeepEqual(planSets(t, m, p), want) {
				t.Errorf("%s (within=%v): sets differ from scratch under a narrowed seed", q, within != nil)
			}
		}
	}
	e := NewEngine(g, EngineOptions{})
	_, _, held, err := e.ParEvalOutputSeeded(context.Background(), mid, nil, nil, nil, true, "")
	if err != nil || held == nil || held.q != mid {
		t.Fatalf("hold: domains %v, err %v", held, err)
	}
	if n := e.Stats().DomainsHeld; n != 1 {
		t.Fatalf("DomainsHeld = %d with one buffer out", n)
	}
	e.ReleaseDomains(held)
	if held.q != nil {
		t.Error("a released buffer still references its instance")
	}
	if n := e.Stats().DomainsHeld; n != 0 || len(e.freeDoms) != 1 {
		t.Errorf("after release: DomainsHeld = %d, free list %d", n, len(e.freeDoms))
	}
	if held.seeds(mid, tpl.Output, false) {
		t.Error("a released buffer still seeds plans")
	}
	// The next hold reuses the buffer.
	_, _, again, _ := e.ParEvalOutputSeeded(context.Background(), mid, nil, nil, nil, true, "")
	if again != held {
		t.Error("the free list did not hand the released buffer out again")
	}
	e.ReleaseDomains(again)
}

// TestPlanDomainsSeedsTheLattice: the root's domains from the plan-only
// entry — no evaluation counted, nothing searched — seed every instance of
// the template to the matches a plan from the label populations finds, and
// the engine then builds no second such plan.
func TestPlanDomainsSeedsTheLattice(t *testing.T) {
	g := randomGraph(t, 220, 1100, differentialSeed+5)
	ctx := context.Background()
	for _, shape := range []string{"star", "chain", "tree", "cycle"} {
		tpl := shapeTemplate(t, shape, g)
		e, plain := NewEngine(g, EngineOptions{}), NewEngine(g, EngineOptions{})
		root := e.PlanDomains(ctx, query.MustInstance(tpl, query.Root(tpl)))
		if root == nil {
			t.Fatalf("%s: fixture: the root plans empty", shape)
		}
		if st := e.Stats(); st.Evals != 0 || st.BacktrackNodes != 0 || st.ScratchPlans != 1 || st.DomainsHeld != 1 {
			t.Fatalf("%s: after PlanDomains: %+v", shape, st)
		}
		n := 0
		for _, in := range allInstantiations(tpl) {
			q := query.MustInstance(tpl, in)
			got, _, _, err := e.ParEvalOutputSeeded(ctx, q, nil, nil, root, false, "")
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := plain.ParEvalNodeFiltered(ctx, q, q.T.Output, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s seeded from the root: %v, from scratch %v", shape, q, got, want)
			}
			n++
		}
		e.ReleaseDomains(root)
		if st := e.Stats(); st.ScratchPlans != 1 || st.Evals != n || st.DomainsHeld != 0 {
			t.Errorf("%s: %d evaluations under the root's seed: %+v", shape, n, st.Stats)
		}
		if got := plain.Stats().ScratchPlans; got != n {
			t.Errorf("%s: unseeded engine counts %d scratch plans for %d evaluations", shape, got, n)
		}
	}
}

// TestDomainsStayWithTheirEngine: domains seed plans of the engine that
// handed them out only — another engine, over the same graph or the next
// generation, plans from scratch to the same answer — and only that engine
// takes them back, until Adopt makes a free buffer another engine's.
func TestDomainsStayWithTheirEngine(t *testing.T) {
	g := randomGraph(t, 220, 1100, differentialSeed+6)
	ctx := context.Background()
	tpl := shapeTemplate(t, "cycle", g)
	root := query.MustInstance(tpl, query.Root(tpl))
	mine, other := NewEngine(g, EngineOptions{}), NewEngine(g, EngineOptions{})
	held := mine.PlanDomains(ctx, root)
	if held == nil {
		t.Fatal("fixture: the root plans empty")
	}
	bottom := query.MustInstance(tpl, query.Bottom(tpl))
	want, _, _, err := mine.ParEvalOutputSeeded(ctx, bottom, nil, nil, held, false, "")
	if err != nil || mine.Stats().ScratchPlans != 1 {
		t.Fatalf("own seed: err %v, %d scratch plans", err, mine.Stats().ScratchPlans)
	}
	got, _, _, err := other.ParEvalOutputSeeded(ctx, bottom, nil, nil, held, false, "")
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("foreign seed: %v (err %v), want %v", got, err, want)
	}
	if st := other.Stats(); st.ScratchPlans != 1 || st.ArcsInherited != 0 {
		t.Errorf("another engine's domains seeded a plan: %+v", st.Stats)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("an engine took back domains it did not hand out")
			}
		}()
		other.ReleaseDomains(held)
	}()
	mine.ReleaseDomains(held)
	if a, b := mine.Stats().DomainsHeld, other.Stats().DomainsHeld; a != 0 || b != 0 {
		t.Errorf("DomainsHeld = %d and %d after the release", a, b)
	}

	// Adopt moves the free buffer, not one that is out: the engine of
	// a larger next generation hands the same buffer out again as
	// its own — it seeds there and the first engine refuses it.
	out, free := mine.PlanDomains(ctx, root), mine.PlanDomains(ctx, root)
	mine.ReleaseDomains(free)
	bigger, _, err := graph.ApplyBatch(g, []graph.Mutation{{Op: graph.MutAddNode, Label: tpl.Nodes[tpl.Output].Label}})
	if err != nil {
		t.Fatal(err)
	}
	next := NewEngine(bigger, EngineOptions{})
	next.Adopt(mine)
	adopted := next.PlanDomains(ctx, root)
	if adopted != free {
		t.Fatalf("the next engine handed out %p, want the adopted %p (still out: %p)", adopted, free, out)
	}
	if _, _, _, err := next.ParEvalOutputSeeded(ctx, bottom, nil, nil, adopted, false, ""); err != nil || next.Stats().ScratchPlans != 1 {
		t.Errorf("adopted seed: err %v, %d scratch plans", err, next.Stats().ScratchPlans)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("an engine took back domains it had handed over")
			}
		}()
		mine.ReleaseDomains(adopted)
	}()
	next.ReleaseDomains(adopted)
	mine.ReleaseDomains(out)
	if a, b := mine.Stats().DomainsHeld, next.Stats().DomainsHeld; a != 0 || b != 0 {
		t.Errorf("DomainsHeld = %d and %d after the hand-over", a, b)
	}
}

// TestStatsAddCoversEveryField: Add sums every counter of Stats, so one
// added later without an Add line fails here.
func TestStatsAddCoversEveryField(t *testing.T) {
	var one Stats
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(1)
	}
	sum := one
	sum.Add(one)
	s := reflect.ValueOf(sum)
	for i := 0; i < s.NumField(); i++ {
		if s.Field(i).Int() != 2 {
			t.Errorf("Stats.Add does not sum %s", s.Type().Field(i).Name)
		}
	}
}
