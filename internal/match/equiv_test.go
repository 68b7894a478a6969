package match_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"fairsqg/internal/core"
	"fairsqg/internal/graph"
	"fairsqg/internal/groups"
	"fairsqg/internal/match"
	"fairsqg/internal/query"
)

// The equivalence generator. One seed makes one case: a random attributed
// multigraph in one backing, a template of one shape bound against it, and
// one value of every axis. checkEquivCase checks it against the brute-force
// oracle (bruteForceMatches, through export_test.go) at the matcher level
// here and at the core level (equiv_core_test.go), so the axes cross, and
// every failure names the seed and the axis values that reproduce it. The
// core level's axes are the store (cold, or warm: an engine another job ran
// on), the answer source (the matcher, or an extra output node joining it),
// the execution (local, or a cluster.Coordinator over two in-process
// workers) and, on a mutated graph, the mutation script landing under a
// streaming OnlineQGen.
var (
	equivSizes    = []int{31, 32, 33, 65} // across the 32-entry chunk and the 64-bit word
	equivShapes   = []string{"star", "chain", "tree", "cycle", "clique"}
	equivBackings = []string{"heap", "decode", "mapped"}
	equivInherit  = []string{"default", "DisableIncremental", "DisableIncScore"}
)

// equivCase is one generated case. g is the graph in the case's backing and
// heap the same graph as built (and mutated): g's cells, answers and
// counters must equal heap's, and the core level's reference runs on heap.
// A mutated case keeps base, the graph as built, and script, the batches
// that mutated it.
type equivCase struct {
	seed                    int64
	rng                     *rand.Rand // what the checker draws instances and within sets from
	g, heap, base           *graph.Graph
	script                  [][]graph.Mutation
	nodes, tombstones       int
	mixed                   bool // column x holds strings and bools besides numbers
	tpl                     *query.Template
	groups                  groups.Set // the k partition of A on heap, under cover
	shape, backing, inherit string
	settings                match.Settings
	procs, cover            int
	eps                     float64
	warm, cluster           bool   // the store and execution axes
	extra                   string // an always-active extra output node, or "" for the output alone
	// outputOracle limits the oracle to the output node, for a fixture too
	// large to brute-force at every node: the other nodes compare the
	// engine with the sequential matcher only.
	outputOracle bool
}

func (c *equivCase) String() string {
	return fmt.Sprintf("seed %d (%d nodes, %d tombstoned, mixed x %v; %s template; %s backing; mode %d, budget %d; inheritance %s; GOMAXPROCS %d; warm %v; extra output %q; cluster %v)",
		c.seed, c.nodes, c.tombstones, c.mixed, c.shape, c.backing, c.settings.Mode, c.settings.MaxBacktrackNodes, c.inherit, c.procs, c.warm, c.extra, c.cluster)
}

// newEquivCase generates the case of one seed. Nodes are labelled A (all
// of them in half the cases) or B and carry x (equivValue), y (a small
// integer) and k (the group attribute, f or m), each absent at times. Edges
// are labelled r or s, one in six is a self-loop, some come in parallel
// copies. Half the graphs then take two graph.Live batches (equivScript).
func newEquivCase(t testing.TB, seed int64) *equivCase {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := &equivCase{
		seed: seed, rng: rng,
		nodes:   equivSizes[rng.Intn(len(equivSizes))],
		mixed:   rng.Intn(2) == 0,
		shape:   equivShapes[rng.Intn(len(equivShapes))],
		backing: equivBackings[rng.Intn(len(equivBackings))],
		inherit: equivInherit[rng.Intn(len(equivInherit))],
		procs:   1 + rng.Intn(2),
		cover:   1 + rng.Intn(4)/3,
		eps:     []float64{0.05, 0.2, 0.5}[rng.Intn(3)],
		warm:    rng.Intn(2) == 0,
		// A budget of 1 to 4 search nodes in one case in six.
		settings: match.Settings{Mode: match.Mode(rng.Intn(2)), MaxBacktrackNodes: max(0, rng.Intn(24)-19)},
	}
	labels := []string{"A", "B"}[:1+rng.Intn(2)]
	g := graph.New()
	for i := 0; i < c.nodes; i++ {
		attrs := map[string]graph.Value{}
		if v := equivValue(rng, c.mixed); !v.IsNull() {
			attrs["x"] = v
		}
		if rng.Intn(5) > 0 {
			attrs["y"] = graph.Int(int64(rng.Intn(6)))
		}
		if rng.Intn(8) > 0 {
			attrs["k"] = graph.Str([]string{"f", "m"}[rng.Intn(2)])
		}
		g.AddNode(labels[rng.Intn(len(labels))], attrs)
	}
	for e := 0; e < 3*c.nodes; e++ {
		from, to := graph.NodeID(rng.Intn(c.nodes)), graph.NodeID(rng.Intn(c.nodes))
		if rng.Intn(6) == 0 {
			to = from
		}
		label := []string{"r", "s"}[rng.Intn(2)]
		for n := 1 + rng.Intn(2)*rng.Intn(3); n > 0; n-- {
			_ = g.AddEdge(from, to, label) // both endpoints exist
		}
	}
	g.Freeze()
	c.heap, c.g = g, g
	if rng.Intn(2) == 0 {
		c.base, c.script = g, equivScript(rng, g, c.mixed)
		l := graph.NewLive(g)
		for i := range c.script {
			landBatch(t, l, c.script, i)
		}
		// Live.Compact hands a checkpoint the generation's resurrected
		// image, tombstoned slots live again.
		c.heap = l.Graph()
		_, g = l.Compact()
		c.tombstones, c.g = len(c.heap.Tombstones()), c.heap
	}
	if c.backing != "heap" {
		c.g = c.inBacking(t, g)
	}
	// A snapshot holds no tombstones (WriteSnapshot refuses them), so a
	// mutated graph gets to a backing as a checkpoint does: g is its
	// resurrected image, and the copy replays the tombstones, keeping every
	// NodeID.
	if ts := c.heap.Tombstones(); len(ts) > 0 && c.backing != "heap" {
		live, _, err := graph.ApplyBatch(c.g, graph.TombstoneBatch(ts))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { live.Close() })
		c.g = live
	}
	if rng.Intn(3) == 0 {
		c.extra = "a" // equivTemplate keeps it always active
	}
	for try := 0; c.tpl == nil || c.tpl.BindDomains(c.heap, query.DomainOptions{MaxValues: 2}) != nil; try++ {
		if try == 20 {
			t.Fatalf("seed %d: no %s template binds", seed, c.shape)
		}
		c.tpl = equivTemplate(rng, c.shape, labels, c.extra != "")
	}
	c.groups = equivGroups(c.heap, c.cover)
	// The cluster rebuilds the job from its wire form: the template as
	// text and groups under an uncapped cover, matched by isomorphism with
	// inheritance on, on a graph a snapshot can ship.
	capped := slices.ContainsFunc(c.groups, func(g groups.Group) bool { return g.Want < c.cover })
	if c.tombstones == 0 && c.extra == "" && !capped && c.settings.Mode == match.Isomorphism && c.inherit == "default" {
		if text := textForm(c.tpl); text != nil {
			c.tpl, c.cluster = text, true
		}
	}
	return c
}

// inBacking returns g in the case's backing: the heap graph, or its
// snapshot decoded or mapped.
func (c *equivCase) inBacking(t testing.TB, g *graph.Graph) *graph.Graph {
	switch c.backing {
	case "decode":
		return match.SnapshotCopy(t, g)
	case "mapped":
		return match.MappedCopy(t, g)
	}
	return g
}

// equivGroups cuts A by k under cover, each want capped at its group's size.
func equivGroups(g *graph.Graph, cover int) groups.Set {
	set := groups.EqualOpportunity(groups.ByAttribute(g, "A", "k"), cover)
	for i := range set {
		set[i].Want = min(set[i].Want, set[i].Size())
	}
	return set
}

// textForm returns tpl parsed back from its text form, which a worker
// rebuilds the job from (the variable table in the parser's order), or nil
// when a bound does not come back with its kind and bits.
func textForm(tpl *query.Template) *query.Template {
	p, err := query.ParseString(query.Format(tpl))
	if err != nil {
		return nil
	}
	var a, b []graph.Value
	for i, n := range tpl.Nodes {
		for j, l := range n.Literals {
			a, b = append(a, l.Const), append(b, p.Nodes[i].Literals[j].Const)
		}
	}
	for _, v := range tpl.Vars {
		for _, w := range p.Vars {
			if w.Name == v.Name && len(w.Ladder) == len(v.Ladder) {
				a, b = append(a, v.Ladder...), append(b, w.Ladder...)
			}
		}
	}
	if !slices.EqualFunc(a, b, func(x, y graph.Value) bool {
		return x.Kind() == y.Kind() && x.Text() == y.Text() && math.Float64bits(x.Float()) == math.Float64bits(y.Float())
	}) {
		return nil
	}
	return p
}

// equivValue draws a cell of column x: absent (Null), NaN, −0 or a small
// integer, and in a mixed-kind column a string or a bool too.
func equivValue(rng *rand.Rand, mixed bool) graph.Value {
	pool := []graph.Value{graph.Null, graph.Num(math.NaN()), graph.Num(math.Copysign(0, -1)), graph.Int(int64(rng.Intn(5))), graph.Int(2)}
	if mixed {
		pool = append(pool, graph.Str("s"+strconv.Itoa(rng.Intn(2))), graph.Bool(rng.Intn(2) == 0))
	}
	return pool[rng.Intn(len(pool))]
}

// equivScript draws the mutation script of g: two graph.Live batches, a
// rewritten x, a new node and an edge (to the new node or a self-loop),
// then one to three removals.
func equivScript(rng *rand.Rand, g *graph.Graph, mixed bool) [][]graph.Mutation {
	n := graph.NodeID(g.NumNodes())
	from := graph.NodeID(rng.Intn(int(n)))
	batch := []graph.Mutation{
		{Op: graph.MutSetAttr, Node: graph.NodeID(rng.Intn(int(n))), Attr: "x", Value: equivValue(rng, mixed)},
		{Op: graph.MutAddNode, Label: "A", Attrs: []graph.AttrPair{{Name: "x", Value: equivValue(rng, mixed)}, {Name: "k", Value: graph.Str("f")}}},
		{Op: graph.MutAddEdge, From: from, To: []graph.NodeID{from, n}[rng.Intn(2)], Label: "r"},
	}
	for _, v := range rng.Perm(int(n))[:1+rng.Intn(3)] {
		batch = append(batch, graph.Mutation{Op: graph.MutRemoveNode, Node: graph.NodeID(v)})
	}
	return [][]graph.Mutation{batch[:3], batch[3:]}
}

// landBatch applies batch i of script to l, compacting after the first.
func landBatch(t testing.TB, l *graph.Live, script [][]graph.Mutation, i int) {
	t.Helper()
	if _, err := l.Apply(script[i]); err != nil {
		t.Fatalf("mutation batch %+v: %v", script[i], err)
	}
	if i == 0 {
		l.Compact()
	}
}

// equivTemplate builds a template of one shape over o (the output, label A)
// and two or three more nodes. Each edge takes a random direction and
// label, up to three are edge variables (never the first, o–a, when
// fixFirst holds), and half the templates add a self-loop. One or two range
// variables and perhaps a fixed literal (its bound an equivValue: Null, NaN
// and −0 among them) sit on random nodes.
func equivTemplate(rng *rand.Rand, shape string, labels []string, fixFirst bool) *query.Template {
	edges := map[string][][2]int{
		"star":   {{0, 1}, {0, 2}, {0, 3}},
		"chain":  {{0, 1}, {1, 2}, {2, 3}},
		"tree":   {{0, 1}, {1, 2}, {1, 3}},
		"cycle":  {{0, 1}, {1, 2}, {2, 0}},
		"clique": {{0, 1}, {0, 2}, {1, 2}, {0, 3}, {1, 3}, {2, 3}},
	}[shape]
	names := []string{"o", "a", "b", "c"}
	if shape == "cycle" {
		names = names[:3]
	}
	if rng.Intn(2) == 0 {
		v := rng.Intn(len(names))
		edges = append(edges, [2]int{v, v})
	}
	b := query.NewBuilder(shape).Node("o", "A")
	for _, name := range names[1:] {
		b.Node(name, labels[rng.Intn(len(labels))])
	}
	vars := 0
	for i, e := range edges {
		if rng.Intn(2) == 0 {
			e[0], e[1] = e[1], e[0]
		}
		from, to, label := names[e[0]], names[e[1]], []string{"r", "s"}[rng.Intn(2)]
		if vars < 3 && rng.Intn(2) == 0 && (i > 0 || !fixFirst) {
			vars++
			b.VarEdge("e"+strconv.Itoa(i), from, to, label)
		} else {
			b.Edge(from, to, label)
		}
	}
	ops := []graph.Op{graph.OpGE, graph.OpLE, graph.OpEQ, graph.OpGT, graph.OpLT}
	for i := 0; i <= rng.Intn(2); i++ {
		b.RangeVar("x"+strconv.Itoa(i), names[rng.Intn(len(names))], []string{"x", "y"}[rng.Intn(2)], ops[rng.Intn(len(ops))])
	}
	if rng.Intn(2) == 0 {
		b.Literal(names[rng.Intn(len(names))], "x", ops[rng.Intn(len(ops))], equivValue(rng, true))
	}
	return b.Output("o").MustBuild()
}

// equivReach tallies the case shapes and axis values the checker met.
type equivReach map[string]int

// met counts shape when cond holds.
func (r equivReach) met(shape string, cond bool) {
	if cond {
		r[shape]++
	}
}

// checkEquivCase generates the case of one seed and checks it at both
// levels under its GOMAXPROCS: first every live cell of the backing against
// the heap graph's, bit for bit (a −0 read back as 0 escapes every
// comparison), then the root and four random instances (a
// core.RandomStream) at the matcher level, then the core level.
func checkEquivCase(t *testing.T, seed int64, reach equivReach) {
	c := newEquivCase(t, seed)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
	for _, k := range []string{"cases", "size " + strconv.Itoa(c.nodes), c.shape, c.backing, c.inherit, fmt.Sprint("mode ", c.settings.Mode)} {
		reach[k]++
	}
	reach.met("multi-output", c.extra != "")
	reach.met("distributed", c.cluster)
	reach.met("tombstoned node", c.tombstones > 0)
	reach.met("budget", c.settings.MaxBacktrackNodes > 0)
	reach.met("GOMAXPROCS 2 with par", c.procs == 2)
	reach.met("a label over 64 nodes", len(c.g.NodesByLabel("A")) > 64)
	for v := graph.NodeID(0); c.g != c.heap && int(v) < c.heap.NumNodes(); v++ {
		for _, attr := range []string{"x", "y", "k"} {
			a, b := c.heap.Attr(v, attr), c.g.Attr(v, attr)
			if c.heap.Alive(v) && (a.Kind() != b.Kind() || a.Text() != b.Text() ||
				math.Float64bits(a.Float()) != math.Float64bits(b.Float())) {
				t.Errorf("%v: node %d %s reads %v, on the heap %v", c, v, attr, b, a)
			}
		}
	}
	random := core.NewRandomStream(c.tpl, 4, c.rng.Int63())
	for q := query.MustInstance(c.tpl, query.Root(c.tpl)); q != nil; q = random.Next() {
		checkMatcher(t, c, q, reach)
	}
	checkCore(t, c, reach)
}

// checkMatcher is the matcher level for one instance. At every template
// node, with and without a within set and a vetoing accept, the sequential
// matcher on the heap graph and a fresh engine on the backing return the
// same matches and ok and leave the same counters, and the answer is the
// oracle's (restricted to within, nil when vetoed) — a subset of it under a
// MaxBacktrackNodes budget; with outputOracle, only the output node takes
// the oracle and a within set. At the output node, a plan seeded from the
// root's domains ends with the unseeded plan's candidate sets, so it
// answers the same and searches the same tree.
func checkMatcher(t *testing.T, c *equivCase, q *query.Instance, reach equivReach) {
	t.Helper()
	unconstrained := map[string]bool{} // the labels of active nodes without literals
	for _, ni := range q.ActiveNodes() {
		for _, l := range q.BoundLiterals(ni) {
			reach.met("NaN or Null bound", l.Value.IsNull() || l.Value.Kind() == graph.KindNumber && math.IsNaN(l.Value.Float()))
		}
		if len(q.BoundLiterals(ni)) == 0 {
			unconstrained[q.T.Nodes[ni].Label] = true
		}
	}
	for _, ei := range q.ActiveEdges() {
		reach.met("self-loop edge", q.T.Edges[ei].From == q.T.Edges[ei].To)
	}
	for node := range q.T.Nodes {
		if c.outputOracle && node != q.T.Output {
			checkEval(t, c, q, node, nil, nil, len(unconstrained), reach)
			continue
		}
		var oracle, within []graph.NodeID
		if q.NodeActive(node) {
			oracle = match.BruteForceMatches(c.g, q, c.settings.Mode, node)
		}
		// A random half of the label, and in half the cases all of the
		// oracle's answer too: a walk passes a superset of the answer.
		superset := c.rng.Intn(2) == 0
		for _, v := range c.g.NodesByLabel(q.T.Nodes[node].Label) {
			if c.rng.Intn(2) == 0 || superset && slices.Contains(oracle, v) {
				within = append(within, v)
			}
		}
		for _, w := range [][]graph.NodeID{nil, within} {
			checkEval(t, c, q, node, oracle, w, len(unconstrained), reach)
		}
	}
}

// checkEval compares one evaluation of node, restricted to w when it is
// not nil, with and without a vetoing accept: the sequential matcher on the
// heap graph against a fresh engine on the backing, and the answer against
// oracle, the node's unrestricted brute-force match set. unconstrained is
// the number of labels of active nodes without literals, the scans no
// literal set caused.
func checkEval(t *testing.T, c *equivCase, q *query.Instance, node int, oracle, w []graph.NodeID, unconstrained int, reach equivReach) {
	t.Helper()
	ctx := context.Background()
	veto := func(cands []graph.NodeID) bool { return len(cands)%2 == 0 }
	for _, accept := range []func([]graph.NodeID) bool{nil, veto} {
		where := fmt.Sprintf("%v: %s node %d (within=%v, accept=%v)", c, q, node, w != nil, accept != nil)
		m := match.New(c.heap)
		m.Settings, m.Cache = c.settings, match.NewCandidateCache(0)
		got, ok := m.EvalNodeFiltered(q, node, w, accept)
		e := match.NewEngine(c.g, match.EngineOptions{Settings: c.settings})
		eng, engOK, err := e.ParEvalNodeFiltered(ctx, q, node, w, accept)
		es, cs := e.Stats(), m.Cache.Stats()
		if err != nil || engOK != ok || !slices.Equal(eng, got) ||
			es.Stats != m.Stats || es.Cache.Hits != cs.Hits || es.Cache.Misses != cs.Misses {
			t.Errorf("%s:\nengine     %v ok=%v err=%v %+v %+v\nsequential (heap) %v ok=%v %+v %+v",
				where, eng, engOK, err, es.Stats, es.Cache, got, ok, m.Stats, cs)
		}
		want := slices.DeleteFunc(slices.Clone(oracle), func(v graph.NodeID) bool { return w != nil && !slices.Contains(w, v) })
		if !ok || len(want) == 0 {
			want = nil
		}
		switch {
		case c.outputOracle && node != q.T.Output:
		case c.settings.MaxBacktrackNodes > 0:
			if slices.ContainsFunc(got, func(v graph.NodeID) bool { return !slices.Contains(want, v) }) {
				t.Errorf("%s: budgeted answer %v is no subset of the oracle's %v", where, got, want)
			}
		case !slices.Equal(got, want):
			t.Errorf("%s:\nmatcher %v\noracle  %v", where, got, want)
		}
		if node == q.T.Output && accept == nil {
			s := match.NewEngine(c.g, match.EngineOptions{Settings: c.settings})
			if d := s.PlanDomains(ctx, query.MustInstance(c.tpl, query.Root(c.tpl))); d != nil {
				seeded, _, _, err := s.ParEvalOutputSeeded(ctx, q, w, nil, d, false, "")
				if st := s.Stats(); err != nil || !slices.Equal(seeded, got) ||
					st.CandidatesChecked != m.Stats.CandidatesChecked || st.BacktrackNodes != m.Stats.BacktrackNodes {
					t.Errorf("%s: seeded from the root %v (err %v) after %d candidates, %d search nodes; unseeded %v after %d, %d",
						where, seeded, err, st.CandidatesChecked, st.BacktrackNodes, got, m.Stats.CandidatesChecked, m.Stats.BacktrackNodes)
				}
				s.ReleaseDomains(d)
				reach["seeded"]++
			}
		}
		switch {
		case !q.NodeActive(node):
			reach["inactive node"]++
		case !ok:
			reach["vetoed"]++
		case len(q.ActiveNodes()) == 1:
			reach["single-node plan"]++
		case w != nil:
			reach["within"]++
		}
		reach.met("index selection", m.Stats.IndexSelections > 0)
		// One scan per distinct key beyond the unconstrained ones is a
		// literal set too wide for the index.
		reach.met("scan fallback", w == nil && m.Stats.ScanSelections > unconstrained)
	}
}

// equivCases is how many seeds TestJointEquivalence runs.
const equivCases = 150

// TestJointEquivalence runs the generator's cases through the checker and
// fails when they missed a case shape the checker distinguishes or an axis
// value. One case reproduces with -run 'TestJointEquivalence/seed=N'.
func TestJointEquivalence(t *testing.T) {
	reach := equivReach{}
	for seed := int64(1); seed <= equivCases; seed++ {
		t.Run("seed="+strconv.FormatInt(seed, 10), func(t *testing.T) { checkEquivCase(t, seed, reach) })
	}
	if reach["cases"] < equivCases {
		return // a -run pattern picked some cases
	}
	want := []string{"index selection", "scan fallback", "within", "vetoed", "inactive node", "single-node plan",
		"seeded", "budget", "self-loop edge", "tombstoned node", "NaN or Null bound", "GOMAXPROCS 2 with par",
		"mode 0", "mode 1", "size 31", "size 32", "size 33", "size 65", "a label over 64 nodes", "an rf front of two",
		"warm, answers reused", "re-scored at GOMAXPROCS 2", "re-verified", "distributed", "multi-output"}
	for _, shape := range slices.Concat(want, equivShapes, equivBackings, equivInherit) {
		if reach[shape] == 0 {
			t.Errorf("no case reached %q", shape)
		}
	}
	t.Logf("reach: %v", reach)
}

// FuzzJointEquivalence runs the case of one fuzzed seed through the
// checker.
func FuzzJointEquivalence(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkEquivCase(t, seed, equivReach{}) })
}
