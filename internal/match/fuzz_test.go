package match

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"fairsqg/internal/graph"
	"fairsqg/internal/query"
)

// fuzzSchemaGraph builds a seeded random graph speaking the template's own
// schema — its node labels, edge labels and literal attributes — so parsed
// templates get graphs they can plausibly match. Attribute values include
// absent (Null), NaN and mixed string/int kinds to exercise the value total
// order, and duplicate edges are kept: the result is a multigraph.
func fuzzSchemaGraph(tpl *query.Template, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	var labels, attrs, edgeLabels []string
	seenL, seenA, seenE := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for i := range tpl.Nodes {
		if l := tpl.Nodes[i].Label; !seenL[l] {
			seenL[l] = true
			labels = append(labels, l)
		}
		for _, lit := range tpl.Nodes[i].Literals {
			if !seenA[lit.Attr] {
				seenA[lit.Attr] = true
				attrs = append(attrs, lit.Attr)
			}
		}
	}
	for i := range tpl.Edges {
		if l := tpl.Edges[i].Label; !seenE[l] {
			seenE[l] = true
			edgeLabels = append(edgeLabels, l)
		}
	}
	g := graph.New()
	n := 6 + rng.Intn(6)
	for i := 0; i < n; i++ {
		av := map[string]graph.Value{}
		for _, a := range attrs {
			switch rng.Intn(6) {
			case 0: // absent: the matcher reads Null
			case 1:
				av[a] = graph.Num(math.NaN())
			case 2:
				av[a] = graph.Str("s" + strconv.Itoa(rng.Intn(3)))
			default:
				av[a] = graph.Int(int64(rng.Intn(5)))
			}
		}
		g.AddNode(labels[rng.Intn(len(labels))], av)
	}
	for e := 0; e < 3*n && len(edgeLabels) > 0; e++ {
		_ = g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)),
			edgeLabels[rng.Intn(len(edgeLabels))])
	}
	g.Freeze()
	return g
}

// FuzzMatcherEquivalence fuzzes template DSL source plus a graph seed and an
// instantiation selector: any template the parser accepts is bound against a
// schema-matched random graph and evaluated in both matching modes. The
// matcher must return the brute-force oracle's match set, a plan seeded
// from an ancestor's domains must end with the from-scratch plan's
// candidate sets — and nothing may panic on the way.
func FuzzMatcherEquivalence(f *testing.F) {
	seeds := []string{
		"template talent\nnode u_o Person title = \"Director\"\nnode u1 Person yearsOfExp >= $x1\nnode o Org employees >= $x2\nedge u1 u_o recommend ?e1\nedge u1 o worksAt\noutput u_o\n",
		"template t\nnode a A x >= $v\nnode b B\nedge a b r ?e\noutput a\n",
		"template x\nnode a A\nedge a a self\noutput a\n",
		"template t\nnode a A x = 1 , y = 2\nnode b B y <= $w\nedge a b r\nedge b a s\noutput a\n",
		"template t\nnode a A\nnode b A\nnode c A\nedge a b r\nedge b c r\nedge c a r\noutput a\n",
	}
	for i, s := range seeds {
		f.Add(s, int64(i+1), uint64(i)*7919|uint64(i)<<33)
	}
	f.Fuzz(func(t *testing.T, src string, graphSeed int64, instPick uint64) {
		tpl, err := query.ParseString(src)
		if err != nil {
			return
		}
		if len(tpl.Nodes) > 6 || len(tpl.Edges) > 8 || len(tpl.Vars) > 8 {
			return // keep the per-input search space small enough to explore
		}
		g := fuzzSchemaGraph(tpl, graphSeed)
		if err := tpl.BindDomains(g, query.DomainOptions{MaxValues: 3}); err != nil {
			return
		}
		// Derive one instantiation from the selector, mixed-radix over the
		// per-variable level counts so every combination stays reachable.
		in := make(query.Instantiation, len(tpl.Vars))
		r := instPick
		for vi := range tpl.Vars {
			v := &tpl.Vars[vi]
			if v.Kind == query.EdgeVar {
				in[vi] = int(r % 2)
				r /= 2
				continue
			}
			k := uint64(len(v.Ladder) + 1)
			in[vi] = int(r%k) - 1
			r /= k
		}
		q, err := query.NewInstance(tpl, in)
		if err != nil {
			t.Fatalf("derived instantiation rejected: %v (template %q, pick %d)", err, src, instPick)
		}
		for _, mode := range []Mode{Isomorphism, Homomorphism} {
			m := New(g)
			m.Mode = mode
			if got, want := m.EvalOutput(q), bruteForceOutput(g, q, mode); !reflect.DeepEqual(got, want) {
				t.Fatalf("mode %d: matcher %v != oracle %v\ntemplate %q graphSeed %d pick %d instance %s",
					mode, got, want, src, graphSeed, instPick, q)
			}
			// The seeded column: the root, and an ancestor the selector's
			// high bits relax q to variable by variable, each seed q's plan.
			anc := in.Clone()
			for vi, r := range query.Root(tpl) {
				if instPick>>(32+uint(vi))&1 == 1 {
					anc[vi] = r
				}
			}
			for _, a := range []query.Instantiation{query.Root(tpl), anc} {
				aq := query.MustInstance(tpl, a)
				d := captureDomains(g, mode, aq, nil, nil)
				if d == nil {
					continue
				}
				scratch, seeded := New(g), New(g)
				scratch.Mode, seeded.Mode = mode, mode
				want := planSets(t, scratch, scratch.buildPlan(q, tpl.Output, nil, nil))
				if got := planSets(t, seeded, seeded.buildPlan(q, tpl.Output, nil, d)); !reflect.DeepEqual(got, want) {
					t.Fatalf("mode %d: plan seeded from %s has sets %v, from scratch %v\ntemplate %q graphSeed %d pick %d instance %s",
						mode, aq, got, want, src, graphSeed, instPick, q)
				}
			}
		}
	})
}
