package match

import (
	"context"
	"math/rand"
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

// seedCases tallies what the seeded plans of a test met, so it can assert
// the corpus reached every case the planner distinguishes.
type seedCases struct {
	literalStep, newNode, closingEdge, within, ancestor, inherited, empty int
}

// checkSeeded asserts that q's plan seeded from d (the domains of anc) ends
// with exactly the candidate sets — same members, same order — of its
// from-scratch plan under the same within.
func checkSeeded(t *testing.T, g *graph.Graph, mode Mode, q, anc *query.Instance, d *Domains, within []graph.NodeID, c *seedCases) {
	t.Helper()
	scratch, seeded := New(g), New(g)
	scratch.Mode, seeded.Mode = mode, mode
	want := planSets(t, scratch, scratch.buildPlan(q, q.T.Output, within, nil))
	got := planSets(t, seeded, seeded.buildPlan(q, q.T.Output, within, d))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mode %d: %s seeded from %s (within=%v):\nseeded  %v\nscratch %v", mode, q, anc, within != nil, got, want)
	}
	if scratch.Stats.ArcsInherited != 0 {
		t.Fatalf("%s: unseeded plan inherited %d arcs", q, scratch.Stats.ArcsInherited)
	}
	if n := seeded.Stats.IndexSelections + seeded.Stats.ScanSelections; n != 0 {
		t.Fatalf("%s seeded from %s: %d candidate selections, want none", q, anc, n)
	}
	if want == nil {
		c.empty++
	}
	if seeded.Stats.ArcsInherited > 0 {
		c.inherited++
	}
	if within != nil {
		c.within++
	}
	switch {
	case len(q.ActiveNodes()) > len(anc.ActiveNodes()):
		c.newNode++
	case len(q.ActiveEdges()) > len(anc.ActiveEdges()):
		c.closingEdge++
	default:
		c.literalStep++
	}
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

// TestSeededPlanEqualsScratch is the exactness property of incremental arc
// consistency: over random graphs and the four template shapes, in both
// matching modes, every plan seeded from an ancestor's domains ends with
// the from-scratch plan's candidate sets, node for node. Random refinement
// chains seed each instance from its parent and from an earlier ancestor,
// carrying the domains down as the walkers do — half the chains under the
// parent's match set as within, so that what is carried is narrower than
// the ancestor's own from-scratch sets; then one whole lattice seeds every
// instance from every instance it refines.
func TestSeededPlanEqualsScratch(t *testing.T) {
	var c seedCases
	rng := rand.New(rand.NewSource(differentialSeed))
	for _, graphSeed := range []int64{differentialSeed, differentialSeed + 1} {
		g := randomGraph(t, 220, 1100, graphSeed)
		for _, shape := range []string{"star", "chain", "tree", "cycle"} {
			tpl := shapeTemplate(t, shape, g)
			for _, mode := range []Mode{Isomorphism, Homomorphism} {
				eval := New(g)
				eval.Mode = mode
				for trial := 0; trial < 12; trial++ {
					type link struct {
						q *query.Instance
						d *Domains
					}
					in := query.Root(tpl)
					root := query.MustInstance(tpl, in)
					chain := []link{{root, captureDomains(g, mode, root, nil, nil)}}
					for len(chain) > 0 && chain[len(chain)-1].d != nil {
						kids := query.RefineSteps(tpl, in)
						if len(kids) == 0 {
							break
						}
						in = kids[rng.Intn(len(kids))]
						q := query.MustInstance(tpl, in)
						parent := chain[len(chain)-1]
						// All the way down or not at all: a seed captured under
						// a within serves evaluations inside that within.
						var within []graph.NodeID
						if trial%2 == 0 {
							within = eval.EvalOutput(parent.q)
						}
						checkSeeded(t, g, mode, q, parent.q, parent.d, within, &c)
						if far := chain[rng.Intn(len(chain))]; far.q != parent.q {
							c.ancestor++
							checkSeeded(t, g, mode, q, far.q, far.d, within, &c)
						}
						// What the walker would hold: the seeded plan's sets.
						chain = append(chain, link{q, captureDomains(g, mode, q, within, parent.d)})
					}
				}
			}
		}
	}
	g := randomGraph(t, 220, 1100, differentialSeed+2)
	tpl := shapeTemplate(t, "cycle", g)
	all := allInstantiations(tpl)
	for _, a := range all {
		anc := query.MustInstance(tpl, a)
		d := captureDomains(g, Isomorphism, anc, nil, nil)
		if d == nil {
			continue
		}
		for _, b := range all {
			if query.RefinesInstantiation(tpl, a, b) {
				checkSeeded(t, g, Isomorphism, query.MustInstance(tpl, b), anc, d, nil, &c)
			}
		}
	}
	if c.literalStep == 0 || c.newNode == 0 || c.closingEdge == 0 || c.within == 0 ||
		c.ancestor == 0 || c.inherited == 0 || c.empty == 0 {
		t.Errorf("the corpus missed a case: %+v", c)
	}
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

// TestEngineSeededEqualsUnseeded: through the engine, a seeded evaluation
// returns the unseeded one's matches and veto, and leaves the search
// counters where the unseeded one does — same fixpoint, same search.
func TestEngineSeededEqualsUnseeded(t *testing.T) {
	g := randomGraph(t, 220, 1100, differentialSeed+3)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(differentialSeed + 3))
	for _, shape := range []string{"tree", "cycle"} {
		tpl := shapeTemplate(t, shape, g)
		for trial := 0; trial < 12; trial++ {
			seeded := NewEngine(g, EngineOptions{})
			plain := NewEngine(g, EngineOptions{})
			in := query.Root(tpl)
			var stack []*Domains
			var seed *Domains
			var within []graph.NodeID
			for {
				q := query.MustInstance(tpl, in)
				got, gotOK, held, err := seeded.ParEvalOutputSeeded(ctx, q, within, nil, seed, true, "")
				if err != nil {
					t.Fatal(err)
				}
				want, wantOK, err := plain.ParEvalNodeFiltered(ctx, q, q.T.Output, within, nil)
				if err != nil {
					t.Fatal(err)
				}
				if gotOK != wantOK || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: seeded %v ok=%v, unseeded %v ok=%v", q, got, gotOK, want, wantOK)
				}
				if held != nil {
					stack = append(stack, held)
					seed = held
				}
				kids := query.RefineSteps(tpl, in)
				if len(kids) == 0 || len(got) == 0 {
					break
				}
				in, within = kids[rng.Intn(len(kids))], got
			}
			if n := seeded.Stats().DomainsHeld; n != len(stack) {
				t.Errorf("DomainsHeld = %d with %d on the path", n, len(stack))
			}
			for _, d := range stack {
				seeded.ReleaseDomains(d)
			}
			s, p := seeded.Stats().Stats, plain.Stats().Stats
			if s.CandidatesChecked != p.CandidatesChecked || s.BacktrackNodes != p.BacktrackNodes || s.Evals != p.Evals {
				t.Errorf("%s: search diverged: seeded %+v, unseeded %+v", shape, s, p)
			}
			if p.ArcsInherited != 0 || s.ArcsRevised >= p.ArcsRevised {
				t.Errorf("%s: arcs revised seeded %d (inherited %d), unseeded %d (inherited %d)",
					shape, s.ArcsRevised, s.ArcsInherited, p.ArcsRevised, p.ArcsInherited)
			}
		}
	}
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
