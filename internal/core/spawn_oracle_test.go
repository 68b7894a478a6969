package core

import (
	"slices"
	"testing"

	"fairsqg/internal/gen"
	"fairsqg/internal/graph"
	"fairsqg/internal/groups"
	"fairsqg/internal/query"
)

// khopOracle is the map-based d-hop BFS the spawner was first written on:
// the ball graph.Neighborhood.Visit is compared against, and its nodes in
// BFS order — seeds first, then hop by hop, out-edges before in-edges.
func khopOracle(g *graph.Graph, seeds []graph.NodeID, d int) (map[graph.NodeID]bool, []graph.NodeID) {
	seen := make(map[graph.NodeID]bool, len(seeds)*4)
	var order []graph.NodeID
	add := func(v graph.NodeID) {
		if !seen[v] {
			seen[v] = true
			order = append(order, v)
		}
	}
	for _, v := range seeds {
		add(v)
	}
	for hop, lo := 0, 0; hop < d && lo < len(order); hop++ {
		frontier := order[lo:]
		lo = len(order)
		for _, v := range frontier {
			for _, e := range g.Out(v) {
				add(e.To)
			}
			for _, e := range g.In(v) {
				add(e.To)
			}
		}
	}
	return seen, order
}

// restrictionsOracle derives the per-variable ladder caps and frozen edge
// variables from a neighborhood the way the spawner first did: one scan of
// the whole neighborhood per (label, attribute) and per edge label, for
// every variable of the template, nothing carried over from the parent.
func restrictionsOracle(cfg *Config, v *Verified, hood map[graph.NodeID]bool) (map[int]int, map[int]bool) {
	t, g := cfg.Template, cfg.G
	maxLevel := map[int]int{}
	fixedEdges := map[int]bool{}
	type extrema struct {
		lo, hi graph.Value
		any    bool
	}
	extremaOf := func(label, attr string) extrema {
		var e extrema
		aid := g.AttrIDOf(attr)
		for n := range hood {
			if g.Label(n) != label {
				continue
			}
			val := g.AttrValue(n, aid)
			if val.IsNull() {
				continue
			}
			if !e.any {
				e = extrema{lo: val, hi: val, any: true}
				continue
			}
			if val.Compare(e.lo) < 0 {
				e.lo = val
			}
			if val.Compare(e.hi) > 0 {
				e.hi = val
			}
		}
		return e
	}
	edgeLabelOccurs := func(label graph.LabelID) bool {
		if label == graph.InvalidLabel {
			return false
		}
		for n := range hood {
			for _, e := range g.Out(n) {
				if e.Label == label {
					return true
				}
			}
		}
		return false
	}
	for vi := range t.Vars {
		tv := &t.Vars[vi]
		switch tv.Kind {
		case query.EdgeVar:
			if v.Q.I[vi] != 1 && !edgeLabelOccurs(g.LookupLabel(t.Edges[tv.Edge].Label)) {
				fixedEdges[vi] = true
			}
		case query.RangeVar:
			if tv.Op == graph.OpEQ {
				continue
			}
			e := extremaOf(t.Nodes[tv.Node].Label, tv.Attr)
			top := -1
			for l := len(tv.Ladder) - 1; l >= 0 && e.any; l-- {
				if predicateSatisfiable(tv.Op, tv.Ladder[l], e.lo, e.hi) {
					top = l
					break
				}
			}
			maxLevel[vi] = top
		}
	}
	return maxLevel, fixedEdges
}

// refineOracle is spawner.refine on the oracle path, given the d-hop
// neighborhood of v's matches.
func refineOracle(cfg *Config, v *Verified, hood map[graph.NodeID]bool) []query.Instantiation {
	t := cfg.Template
	if cfg.DisableTemplateRefinement || len(v.Matches) == 0 || len(v.Matches) > maxNeighborhoodSeeds {
		return query.RefineSteps(t, v.Q.I)
	}
	maxLevel, fixedEdges := restrictionsOracle(cfg, v, hood)
	res := query.Restriction{Caps: make([]int, len(t.Vars)), Frozen: make([]bool, len(t.Vars))}
	for vi := range t.Vars {
		res.Caps[vi] = query.NoCap
		if top, ok := maxLevel[vi]; ok {
			res.Caps[vi] = top
		}
		res.Frozen[vi] = fixedEdges[vi]
	}
	return query.RefineStepsRestricted(t, v.Q.I, res)
}

// spawnTemplates are one template per shape over the LKI schema. Between
// them they hold >=, <= and = range variables, two variables sharing one
// (label, attribute), edge variables sharing a label, and an edge label
// (mentors) the generated graphs never carry.
var spawnTemplates = []string{
	`template star
node u_o Person title = "Director"
node u1 Person yearsOfExp >= $x1
node u2 Person yearsOfExp <= $x2
node u3 Org employees >= $x3
edge u1 u_o recommend ?e1
edge u2 u_o coreview ?e2
edge u_o u3 worksAt
output u_o`,
	`template chain
node u_o Person title = "Manager"
node u1 Person yearsOfExp >= $x1
node u2 Person skill = $s
node u3 Org employees >= $x3
edge u1 u_o recommend
edge u2 u1 recommend ?e1
edge u2 u3 worksAt ?e2
output u_o`,
	`template tree
node u_o Person title = "Director"
node u1 Person yearsOfExp >= $x1
node u2 Person
node u3 Person yearsOfExp >= $x2
node u4 Org employees <= 2000
edge u1 u_o recommend
edge u2 u_o mentors ?e1
edge u3 u1 recommend ?e2
edge u1 u4 worksAt ?e3
output u_o`,
	`template cycle
node u_o Person title = "Director"
node u1 Person yearsOfExp >= $x1
node u2 Person yearsOfExp <= $x2
edge u1 u_o recommend
edge u2 u1 coreview ?e1
edge u_o u2 coreview ?e2
output u_o`,
}

// spawnGraphs returns a generated LKI graph and a mutated generation of it
// with tombstones, rewritten attributes and extra edges.
func spawnGraphs(t *testing.T, seed int64) []*graph.Graph {
	t.Helper()
	g := gen.BuildLKI(gen.Options{Nodes: 500, Seed: seed})
	var ops []graph.Mutation
	for i, n := 0, 40; n < g.NumNodes(); i, n = i+1, n+9 {
		v := graph.NodeID(n)
		switch i % 3 {
		case 0:
			ops = append(ops, graph.Mutation{Op: graph.MutRemoveNode, Node: v})
		case 1:
			if g.Label(v) == "Person" {
				ops = append(ops, graph.Mutation{Op: graph.MutSetAttr, Node: v, Attr: "yearsOfExp", Value: graph.Int(int64(40 + n%7))})
			}
		default:
			if to := graph.NodeID(n - 13); g.Label(v) == "Person" && g.Label(to) == "Person" {
				ops = append(ops, graph.Mutation{Op: graph.MutAddEdge, From: v, To: to, Label: "coreview"})
			}
		}
	}
	mutated, _, err := graph.ApplyBatch(g, ops)
	if err != nil {
		t.Fatal(err)
	}
	if !mutated.HasTombstones() {
		t.Fatal("mutated generation has no tombstones")
	}
	return []*graph.Graph{g, mutated}
}

// spawnRunner binds tplText to g with lax coverage constraints.
func spawnRunner(t testing.TB, g *graph.Graph, tplText string) *Runner {
	t.Helper()
	tpl, err := query.ParseString(tplText)
	if err != nil {
		t.Fatal(err)
	}
	if err := tpl.BindDomains(g, query.DomainOptions{MaxValues: 3}); err != nil {
		t.Fatal(err)
	}
	set := groups.EqualOpportunity(groups.ByAttribute(g, "Person", "gender"), 1)
	r, err := NewRunner(&Config{G: g, Template: tpl, Groups: set, Eps: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func instKeys(ins []query.Instantiation) []string {
	keys := make([]string, len(ins))
	for i, in := range ins {
		keys[i] = in.Key()
	}
	return keys
}

// checkAgainstOracle compares one spawner call on v at diameter d with the
// oracle: the node set walked, the restriction derived with nothing carried
// down, and the ordered child list with v.spent as it stands.
func checkAgainstOracle(t *testing.T, r *Runner, sp *spawner, v *Verified, d int) {
	t.Helper()
	cfg, tpl := r.cfg, r.cfg.Template
	sp.diameter = d
	hood, order := khopOracle(cfg.G, v.Matches, d)
	var walker graph.Neighborhood
	var visited []graph.NodeID
	walker.Visit(cfg.G, v.Matches, d, func(n graph.NodeID) bool {
		visited = append(visited, n)
		return false
	})
	if !slices.Equal(visited, order) {
		t.Fatalf("%s d=%d: walk visits %v, oracle BFS order %v", v.Q.Key(), d, visited, order)
	}
	// A walk stopped at its k-th node has visited exactly the first k.
	for _, k := range []int{1, (len(order) + 1) / 2, len(order)} {
		if k == 0 || k > len(order) {
			continue
		}
		visited = visited[:0]
		n := walker.Visit(cfg.G, v.Matches, d, func(n graph.NodeID) bool {
			visited = append(visited, n)
			return len(visited) == k
		})
		if n != k || !slices.Equal(visited, order[:k]) {
			t.Fatalf("%s d=%d: stopped at node %d, Visit returned %d after visiting %v", v.Q.Key(), d, k, n, visited)
		}
	}
	if len(v.Matches) <= maxNeighborhoodSeeds {
		maxLevel, fixedEdges := restrictionsOracle(cfg, v, hood)
		fresh := *v
		fresh.spent = 0
		res := sp.restriction(&fresh)
		var steppable uint64
		for vi := range tpl.Vars {
			tv := &tpl.Vars[vi]
			level := v.Q.I[vi]
			switch {
			case tv.Kind == query.EdgeVar && level != 1:
				steppable |= spentBit(vi)
				if res.Frozen[vi] != fixedEdges[vi] {
					t.Errorf("%s d=%d: edge variable %s frozen=%v, oracle %v", v.Q.Key(), d, tv.Name, res.Frozen[vi], fixedEdges[vi])
				}
			case tv.Kind == query.RangeVar && tv.Op != graph.OpEQ && level+1 < len(tv.Ladder):
				steppable |= spentBit(vi)
				// Blocked exactly when the oracle caps the next step away,
				// then at the oracle's cap; admitted uncapped.
				switch blocked := fresh.spent&spentBit(vi) != 0; {
				case blocked != (maxLevel[vi] < level+1):
					t.Errorf("%s d=%d: variable %s blocked=%v, oracle cap %d", v.Q.Key(), d, tv.Name, blocked, maxLevel[vi])
				case blocked && res.Caps[vi] != maxLevel[vi]:
					t.Errorf("%s d=%d: blocked variable %s capped at %d, oracle %d", v.Q.Key(), d, tv.Name, res.Caps[vi], maxLevel[vi])
				case !blocked && res.Caps[vi] != query.NoCap:
					t.Errorf("%s d=%d: admitted variable %s capped at %d", v.Q.Key(), d, tv.Name, res.Caps[vi])
				}
			}
		}
		// Exactness of the carry-down: whatever v inherited and can still
		// step is blocked when derived from v's own neighborhood too.
		if v.spent&steppable&^fresh.spent != 0 {
			t.Errorf("%s d=%d: carried-down blocked variables %b, derived afresh %b", v.Q.Key(), d, v.spent&steppable, fresh.spent)
		}
	}
	got, wantKids := instKeys(sp.refine(v)), instKeys(refineOracle(cfg, v, hood))
	if !slices.Equal(got, wantKids) {
		t.Errorf("%s d=%d: children %v, oracle %v", v.Q.Key(), d, got, wantKids)
	}
}

// TestSpawnMatchesOracle walks every lattice edge of each template shape on
// generated and mutated graphs, at every diameter, and checks the spawner
// against the oracle on the child of each edge — with the blocked variables
// carried down from that edge's parent.
func TestSpawnMatchesOracle(t *testing.T) {
	for gi, g := range spawnGraphs(t, 1) {
		for _, tplText := range spawnTemplates {
			r := spawnRunner(t, g, tplText) // its memo verifies each instance once for all d
			tpl := r.cfg.Template
			for d := 0; d <= 3; d++ {
				sp := newSpawner(r)
				// spent is, per instance reached, what the spawner left in
				// Verified.spent at this d.
				spent := map[string]uint64{}
				edges, suppressed := 0, r.stats.RefineSuppressed
				root := *r.verify(query.MustInstance(tpl, query.Root(tpl)), nil)
				root.spent = 0
				checkAgainstOracle(t, r, sp, &root, d)
				spent[root.Q.Key()] = root.spent
				queue := []*Verified{&root}
				for len(queue) > 0 {
					parent := queue[0]
					queue = queue[1:]
					// Every lattice edge, also those the restriction would
					// withhold: below them the carried-down bits meet
					// instances the restricted walk never reaches.
					for _, in := range query.RefineSteps(tpl, parent.Q.I) {
						child := *r.verify(query.MustInstance(tpl, in), parent)
						if len(child.Matches) == 0 {
							continue
						}
						edges++
						child.spent = spent[parent.Q.Key()]
						checkAgainstOracle(t, r, sp, &child, d)
						if _, seen := spent[in.Key()]; !seen {
							spent[in.Key()] = child.spent
							queue = append(queue, &child)
						}
					}
				}
				if edges == 0 {
					t.Errorf("graph %d %s: no lattice edge with matches", gi, tpl.Name)
				}
				if d == 0 && r.stats.RefineSuppressed == suppressed {
					t.Errorf("graph %d %s: the matches alone withheld no child", gi, tpl.Name)
				}
				if t.Failed() {
					t.FailNow()
				}
			}
		}
	}
}

// TestSpawnStopRule pins where the walk stops on a hand-made path
// n3 → n2 → n1 → n0 (recommend), with n2 → n1 the only coreview edge and
// the only Orgs past n3. From n0, $x1 is proven at the seed itself: on
// "late" the walk runs on until the coreview label turns up at n2, the
// third node; on "blocked" no Org is ever in the ball, so $x3 is never
// proven — not even while the Person extrema move and its own are empty —
// and the walk covers the whole ball to block it.
func TestSpawnStopRule(t *testing.T) {
	g := graph.New()
	person := func(title string, years int64, gender string) graph.NodeID {
		return g.AddNode("Person", map[string]graph.Value{"title": graph.Str(title), "yearsOfExp": graph.Int(years), "gender": graph.Str(gender)})
	}
	n0, n1, n2, n3 := person("Director", 5, "male"), person("Engineer", 7, "female"), person("Analyst", 9, "male"), person("Analyst", 30, "female")
	org, bigOrg := g.AddNode("Org", map[string]graph.Value{"employees": graph.Int(100)}), g.AddNode("Org", map[string]graph.Value{"employees": graph.Int(5000)})
	for _, e := range []struct {
		from, to graph.NodeID
		label    string
	}{{n1, n0, "recommend"}, {n2, n1, "recommend"}, {n2, n1, "coreview"}, {n3, n2, "recommend"}, {n3, org, "worksAt"}, {n3, bigOrg, "worksAt"}} {
		if err := g.AddEdge(e.from, e.to, e.label); err != nil {
			t.Fatal(err)
		}
	}
	g.Freeze()
	const head = `node u_o Person title = "Director"
node u1 Person yearsOfExp >= $x1
node u2 Person
edge u1 u_o recommend
edge u2 u1 coreview ?e1
`
	for _, c := range []struct {
		name, tpl string
		nodes     []int // nodes walked at d = 0..3
	}{
		{"late", "template late\n" + head + "output u_o", []int{1, 2, 3, 3}},
		{"blocked", "template blocked\n" + head + "node u3 Org employees <= $x3\nedge u_o u3 worksAt ?e2\noutput u_o", []int{1, 2, 3, 4}},
	} {
		r := spawnRunner(t, g, c.tpl)
		tpl := r.cfg.Template
		root := query.MustInstance(tpl, query.Root(tpl))
		sp := newSpawner(r)
		for d, want := range c.nodes {
			checkAgainstOracle(t, r, sp, &Verified{Q: root, Matches: []graph.NodeID{n0}}, d)
			nodes := r.stats.HoodNodes
			sp.refine(&Verified{Q: root, Matches: []graph.NodeID{n0}})
			if got := r.stats.HoodNodes - nodes; got != want {
				t.Errorf("%s d=%d: walked %d nodes, want %d", c.name, d, got, want)
			}
		}
	}
}

// TestSpawnSeedSets feeds hand-made seed sets: duplicate seeds, and seed
// counts at and just over the cap above which no neighborhood is walked.
func TestSpawnSeedSets(t *testing.T) {
	g := spawnGraphs(t, 3)[1]
	r := spawnRunner(t, g, spawnTemplates[0])
	tpl := r.cfg.Template
	root := query.MustInstance(tpl, query.Root(tpl))
	var live []graph.NodeID
	for n := 0; n < g.NumNodes() && len(live) <= maxNeighborhoodSeeds; n++ {
		if g.Alive(graph.NodeID(n)) {
			live = append(live, graph.NodeID(n))
		}
	}
	if len(live) != maxNeighborhoodSeeds+1 {
		t.Fatalf("graph has only %d live nodes", len(live))
	}
	sp := newSpawner(r)
	for name, seeds := range map[string][]graph.NodeID{
		"duplicates": {live[7], live[7], live[300], live[7], live[300]},
		"at cap":     live[:maxNeighborhoodSeeds],
		"over cap":   live,
	} {
		for d := 0; d <= 3; d++ {
			walks := r.stats.HoodRuns
			checkAgainstOracle(t, r, sp, &Verified{Q: root, Matches: seeds}, d)
			// One walk for the restriction derived afresh and one for refine,
			// unless the seed set is over the cap.
			if got, over := r.stats.HoodRuns-walks, len(seeds) > maxNeighborhoodSeeds; over != (got == 0) {
				t.Errorf("%s d=%d: %d neighborhood walks", name, d, got)
			}
		}
	}
}

// TestSpawnerReuse: a spawner's scratch carries nothing from one call to
// the next — a large neighborhood, then a small one, then the large one
// again give what fresh spawners give.
func TestSpawnerReuse(t *testing.T) {
	g := spawnGraphs(t, 4)[0]
	r := spawnRunner(t, g, spawnTemplates[3])
	tpl := r.cfg.Template
	root := r.verify(query.MustInstance(tpl, query.Root(tpl)), nil)
	if len(root.Matches) < 2 {
		t.Fatalf("root has %d matches", len(root.Matches))
	}
	wide := &Verified{Q: root.Q, Matches: root.Matches}
	narrow := &Verified{Q: root.Q, Matches: root.Matches[:1]}
	reused := newSpawner(r)
	for i, v := range []*Verified{wide, narrow, wide} {
		v.spent = 0
		got := instKeys(reused.refine(v))
		v.spent = 0
		want := instKeys(newSpawner(r).refine(v))
		if !slices.Equal(got, want) {
			t.Errorf("call %d: reused spawner %v, fresh spawner %v", i, got, want)
		}
	}
	if w, n := instKeys(reused.refine(wide)), instKeys(reused.refine(narrow)); len(n) > len(w) {
		t.Errorf("fewer seeds admit more children: %v vs %v", n, w)
	}
}

// TestSpawnLeafDoesNotWalk: an instance none of whose variables can step
// (beyond equality variables, which caps do not model) is not walked.
func TestSpawnLeafDoesNotWalk(t *testing.T) {
	g := spawnGraphs(t, 1)[0]
	r := spawnRunner(t, g, spawnTemplates[0])
	tpl := r.cfg.Template
	root := r.verify(query.MustInstance(tpl, query.Root(tpl)), nil)
	leaf := &Verified{Q: query.MustInstance(tpl, query.Bottom(tpl)), Matches: root.Matches}
	if kids := newSpawner(r).refine(leaf); len(kids) != 0 || r.stats.HoodRuns != 0 {
		t.Errorf("leaf: %d children, %d neighborhood walks", len(kids), r.stats.HoodRuns)
	}
}

// TestSpawnRefineAllocs: a warm refine allocates the child list and the
// children, whatever the size of the neighborhood it walks.
func TestSpawnRefineAllocs(t *testing.T) {
	g := spawnGraphs(t, 1)[0]
	r := spawnRunner(t, g, spawnTemplates[0])
	tpl := r.cfg.Template
	root := r.verify(query.MustInstance(tpl, query.Root(tpl)), nil)
	sp := newSpawner(r)
	for d := 1; d <= 3; d++ {
		sp.diameter = d
		root.spent = 0
		kids := sp.refine(root)
		if len(kids) == 0 {
			t.Fatalf("d=%d: root has no children", d)
		}
		nodes := r.stats.HoodNodes
		allocs := testing.AllocsPerRun(20, func() {
			root.spent = 0
			sp.refine(root)
		})
		if want := float64(len(kids) + 1); allocs != want {
			t.Errorf("d=%d: %v allocations for %d children (want %v)", d, allocs, len(kids), want)
		}
		if r.stats.HoodNodes == nodes {
			t.Errorf("d=%d: the measured calls walked nothing", d)
		}
	}
}
