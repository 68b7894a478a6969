package graph

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
)

// ---------------------------------------------------------------------------
// Map-based oracle: the simplest possible implementation of the mutation
// semantics, rebuilt from scratch through the ordinary builder + Freeze
// path. The differential tests assert the incremental merge and the oracle
// agree on every observable (via Equivalent) after every batch.

type mnode struct {
	label string
	attrs map[string]Value
	alive bool
}

type medge struct {
	from, to int
	label    string
}

type mutModel struct {
	nodes []*mnode
	edges []medge
}

func modelFrom(g *Graph) *mutModel {
	m := &mutModel{}
	for v := 0; v < g.NumNodes(); v++ {
		nd := &mnode{label: g.Label(NodeID(v)), attrs: map[string]Value{}, alive: g.Alive(NodeID(v))}
		if nd.alive {
			for _, p := range g.AttrPairs(NodeID(v)) {
				nd.attrs[p.Name] = p.Value
			}
		}
		m.nodes = append(m.nodes, nd)
		for _, e := range g.Out(NodeID(v)) {
			m.edges = append(m.edges, medge{from: v, to: int(e.To), label: g.labels[e.Label]})
		}
	}
	return m
}

func (m *mutModel) clone() *mutModel {
	c := &mutModel{nodes: make([]*mnode, len(m.nodes)), edges: append([]medge(nil), m.edges...)}
	for i, nd := range m.nodes {
		attrs := make(map[string]Value, len(nd.attrs))
		for k, v := range nd.attrs {
			attrs[k] = v
		}
		c.nodes[i] = &mnode{label: nd.label, attrs: attrs, alive: nd.alive}
	}
	return c
}

func (m *mutModel) aliveID(v NodeID) bool {
	return v >= 0 && int(v) < len(m.nodes) && m.nodes[v].alive
}

func (m *mutModel) applyOne(op Mutation) error {
	switch op.Op {
	case MutAddNode:
		attrs := map[string]Value{}
		for _, kv := range op.Attrs {
			if kv.Value.Kind() == KindNull {
				delete(attrs, kv.Name)
			} else {
				attrs[kv.Name] = kv.Value
			}
		}
		m.nodes = append(m.nodes, &mnode{label: op.Label, attrs: attrs, alive: true})
	case MutRemoveNode:
		if !m.aliveID(op.Node) {
			return fmt.Errorf("model: removeNode %d", op.Node)
		}
		nd := m.nodes[op.Node]
		nd.alive = false
		nd.attrs = nil
		keep := m.edges[:0]
		for _, e := range m.edges {
			if e.from != int(op.Node) && e.to != int(op.Node) {
				keep = append(keep, e)
			}
		}
		m.edges = keep
	case MutAddEdge:
		if !m.aliveID(op.From) || !m.aliveID(op.To) {
			return fmt.Errorf("model: addEdge %d->%d", op.From, op.To)
		}
		m.edges = append(m.edges, medge{from: int(op.From), to: int(op.To), label: op.Label})
	case MutRemoveEdge:
		if !m.aliveID(op.From) || !m.aliveID(op.To) {
			return fmt.Errorf("model: removeEdge %d->%d", op.From, op.To)
		}
		for i, e := range m.edges {
			if e.from == int(op.From) && e.to == int(op.To) && e.label == op.Label {
				m.edges = append(m.edges[:i], m.edges[i+1:]...)
				return nil
			}
		}
		return fmt.Errorf("model: removeEdge %d->%d %q: no instance", op.From, op.To, op.Label)
	case MutSetAttr:
		if !m.aliveID(op.Node) {
			return fmt.Errorf("model: setAttr on %d", op.Node)
		}
		if op.Attr == "" {
			return fmt.Errorf("model: setAttr: empty name")
		}
		if op.Value.Kind() == KindNull {
			delete(m.nodes[op.Node].attrs, op.Attr)
		} else {
			m.nodes[op.Node].attrs[op.Attr] = op.Value
		}
	default:
		return fmt.Errorf("model: unknown op %d", op.Op)
	}
	return nil
}

// applyBatch applies the whole batch or nothing, like ApplyBatch.
func (m *mutModel) applyBatch(ops []Mutation) error {
	if len(ops) == 0 {
		return fmt.Errorf("model: empty batch")
	}
	c := m.clone()
	for _, op := range ops {
		if err := c.applyOne(op); err != nil {
			return err
		}
	}
	*m = *c
	return nil
}

// build rebuilds the model's live content from scratch via builder+Freeze.
func (m *mutModel) build(tb testing.TB) *Graph {
	tb.Helper()
	g := New()
	remap := make(map[int]NodeID, len(m.nodes))
	for i, nd := range m.nodes {
		if !nd.alive {
			continue
		}
		remap[i] = g.AddNode(nd.label, nd.attrs)
	}
	for _, e := range m.edges {
		if err := g.AddEdge(remap[e.from], remap[e.to], e.label); err != nil {
			tb.Fatalf("model rebuild: %v", err)
		}
	}
	g.Freeze()
	return g
}

func (m *mutModel) liveIDs() []NodeID {
	var out []NodeID
	for i, nd := range m.nodes {
		if nd.alive {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// checkAgainstModel asserts graph ≡ model rebuild and internal soundness.
func checkAgainstModel(tb testing.TB, g *Graph, m *mutModel) {
	tb.Helper()
	if err := CheckInvariants(g); err != nil {
		tb.Fatalf("invariants: %v", err)
	}
	rebuilt := m.build(tb)
	if err := Equivalent(g, rebuilt); err != nil {
		tb.Fatalf("mutated vs rebuilt: %v", err)
	}
	// Layout, not just content: each attribute's column has the kind and
	// count a from-scratch Freeze gives it (an attribute one dictionary
	// lacks is an empty column in the other).
	for _, name := range unionStrings(g.attrNames, rebuilt.attrNames) {
		if got, want := columnShape(g, name), columnShape(rebuilt, name); got != want {
			tb.Fatalf("attr %q: column (kind, count) = %v, rebuilt %v", name, got, want)
		}
	}
}

// columnShape is the (kind, count) of the named attribute's column.
func columnShape(g *Graph, name string) [2]int {
	a := g.AttrIDOf(name)
	if a == InvalidAttr {
		return [2]int{int(KindNull), 0}
	}
	return [2]int{int(g.cols[a].kind), g.cols[a].count}
}

// ---------------------------------------------------------------------------

func TestApplyBatchBasic(t *testing.T) {
	g := buildSample(t)
	if got := g.Version(); got != 1 {
		t.Fatalf("fresh frozen graph version = %d, want 1", got)
	}
	batch := []Mutation{
		{Op: MutAddNode, Label: "Person", Attrs: []AttrPair{{Name: "age", Value: Int(55)}, {Name: "name", Value: Str("dee")}}},
		{Op: MutAddEdge, From: 5, To: 0, Label: "knows"},
		{Op: MutSetAttr, Node: 0, Attr: "age", Value: Int(31)},
		{Op: MutRemoveEdge, From: 1, To: 2, Label: "knows"},
		{Op: MutRemoveNode, Node: 4},
	}
	ng, res, err := ApplyBatch(g, batch)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 2 || ng.Version() != 2 {
		t.Errorf("version = %d/%d, want 2", res.Version, ng.Version())
	}
	if len(res.AddedNodes) != 1 || res.AddedNodes[0] != 5 {
		t.Errorf("AddedNodes = %v, want [5]", res.AddedNodes)
	}
	// removeNode 4 cascades the two worksAt edges into node 4.
	if res.NodesRemoved != 1 || res.EdgesAdded != 1 || res.EdgesRemoved != 3 {
		t.Errorf("counters = %+v", *res)
	}
	if ng.NumNodes() != 6 || ng.NumLive() != 5 || ng.NumEdges() != 4 {
		t.Errorf("|V|=%d live=%d |E|=%d, want 6/5/4", ng.NumNodes(), ng.NumLive(), ng.NumEdges())
	}
	if got := ng.Attr(0, "age"); !got.Equal(Int(31)) {
		t.Errorf("mutated attr = %v", got)
	}
	if got := ng.Attr(5, "name"); !got.Equal(Str("dee")) {
		t.Errorf("added node attr = %v", got)
	}
	if ng.Alive(4) {
		t.Error("node 4 should be tombstoned")
	}
	if ts := ng.Tombstones(); len(ts) != 1 || ts[0] != 4 {
		t.Errorf("Tombstones = %v", ts)
	}
	// Base stays untouched.
	if g.Version() != 1 || g.NumEdges() != 6 || !g.Attr(0, "age").Equal(Int(30)) {
		t.Error("base graph was modified by ApplyBatch")
	}
	if err := CheckInvariants(g); err != nil {
		t.Errorf("base invariants after ApplyBatch: %v", err)
	}
	m := modelFrom(g)
	if err := m.applyBatch(batch); err != nil {
		t.Fatal(err)
	}
	checkAgainstModel(t, ng, m)
}

// TestApplyBatchBranchesGetOwnKeys: two batches applied to one base are two
// graph states at one version, so they must not share a generation key.
func TestApplyBatchBranchesGetOwnKeys(t *testing.T) {
	g := buildSample(t)
	var keys []string
	for _, age := range []int64{31, 32} {
		ng, _, err := ApplyBatch(g, []Mutation{{Op: MutSetAttr, Node: 0, Attr: "age", Value: Int(age)}})
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, ng.GenKey())
	}
	if keys[0] == keys[1] {
		t.Errorf("two branches of one base share the generation key %s", keys[0])
	}
}

// TestApplyBatchColumnLayout: a batch leaves every touched column in the
// layout Freeze would give its new content — re-uniformed when its odd
// value goes, demoted to the mixed fallback when one arrives, bare when
// emptied, and built from nothing for an attribute an AddNode introduces.
func TestApplyBatchColumnLayout(t *testing.T) {
	g := New()
	for i := 0; i < 70; i++ { // past one bitmap word
		attrs := map[string]Value{"score": Int(int64(i % 7)), "flag": Bool(i%2 == 0)}
		if i == 3 {
			attrs["score"] = Str("n/a") // the odd value: score starts mixed
		}
		if i < 2 {
			attrs["rare"] = Str("x")
		}
		g.AddNode("P", attrs)
	}
	g.Freeze()
	shape := func(g *Graph, name string) (Kind, int, bool, bool) {
		c := &g.cols[g.AttrIDOf(name)]
		return c.kind, c.count, c.nums.n+c.strs.n+c.bools.n > 0, c.vals != nil
	}
	if k, _, typed, mixed := shape(g, "score"); k != KindNull || typed || !mixed {
		t.Fatalf("fixture: score should start mixed, got kind %v typed=%v mixed=%v", k, typed, mixed)
	}
	cases := []struct {
		name, attr string
		batch      []Mutation
		kind       Kind
		count      int
		typed      bool // a uniform typed array
		mixed      bool // the []Value fallback
	}{
		{"mixed to uniform by overwrite", "score", []Mutation{{Op: MutSetAttr, Node: 3, Attr: "score", Value: Int(9)}}, KindNumber, 70, true, false},
		{"mixed to uniform by delete", "score", []Mutation{{Op: MutSetAttr, Node: 3, Attr: "score"}}, KindNumber, 69, true, false},
		{"mixed to uniform by removal", "score", []Mutation{{Op: MutRemoveNode, Node: 3}}, KindNumber, 69, true, false},
		{"uniform to mixed", "flag", []Mutation{{Op: MutSetAttr, Node: 69, Attr: "flag", Value: Int(1)}}, KindNull, 70, false, true},
		{"emptied", "rare", []Mutation{{Op: MutSetAttr, Node: 0, Attr: "rare"}, {Op: MutRemoveNode, Node: 1}}, KindNull, 0, false, false},
		{"introduced by AddNode", "fresh", []Mutation{{Op: MutAddNode, Label: "P", Attrs: []AttrPair{{Name: "fresh", Value: Str("new")}}}}, KindString, 1, true, false},
		{"introduced then deleted", "fresh", []Mutation{
			{Op: MutAddNode, Label: "P", Attrs: []AttrPair{{Name: "fresh", Value: Str("new")}}},
			{Op: MutSetAttr, Node: 70, Attr: "fresh"}}, KindNull, 0, false, false},
	}
	for _, c := range cases {
		ng, _, err := ApplyBatch(g, c.batch)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if k, n, typed, mixed := shape(ng, c.attr); k != c.kind || n != c.count || typed != c.typed || mixed != c.mixed {
			t.Errorf("%s: column %q = (kind %v, count %d, typed %v, mixed %v), want (%v, %d, %v, %v)",
				c.name, c.attr, k, n, typed, mixed, c.kind, c.count, c.typed, c.mixed)
		}
		m := modelFrom(g)
		if err := m.applyBatch(c.batch); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkAgainstModel(t, ng, m)
		// The next generation rebuilds the column from this one's layout.
		next := []Mutation{{Op: MutSetAttr, Node: 5, Attr: c.attr, Value: Str("y")}}
		ng2, _, err := ApplyBatch(ng, next)
		if err != nil {
			t.Fatalf("%s: second batch: %v", c.name, err)
		}
		if err := m.applyBatch(next); err != nil {
			t.Fatal(err)
		}
		checkAgainstModel(t, ng2, m)
	}
}

// TestApplyBatchColumnScratch pins what patching a touched column costs: on
// the same 16k-node graph a one-SetAttr batch allocates more than a
// one-AddEdge batch (what both pay cancels), but less than the column's
// float array (8 B × n) more — the batch clones the chunks holding the
// edited cell, and what remains is one merged permutation.
func TestApplyBatchColumnScratch(t *testing.T) {
	const n = 16000
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode("P", map[string]Value{"score": Int(int64(i % 40))})
	}
	if err := g.AddEdge(0, 1, "e"); err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	batchBytes := func(batch []Mutation) uint64 {
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, _, err := ApplyBatch(g, batch); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	edge := batchBytes([]Mutation{{Op: MutAddEdge, From: 2, To: 3, Label: "e"}})
	attr := batchBytes([]Mutation{{Op: MutSetAttr, Node: 7, Attr: "score", Value: Int(99)}})
	t.Logf("edge-only batch %d B, one-SetAttr batch %d B", edge, attr)
	if attr <= edge || attr-edge >= 8*n {
		t.Errorf("patching one numeric column costs %d B over an edge-only batch (%d B), want > 0 and < %d (8 B × n)", attr-edge, edge, 8*n)
	}
}

func TestApplyBatchValidation(t *testing.T) {
	g := buildSample(t)
	bad := map[string][]Mutation{
		"empty":                 {},
		"remove missing node":   {{Op: MutRemoveNode, Node: 99}},
		"remove negative":       {{Op: MutRemoveNode, Node: -1}},
		"double remove":         {{Op: MutRemoveNode, Node: 0}, {Op: MutRemoveNode, Node: 0}},
		"edge to removed":       {{Op: MutRemoveNode, Node: 1}, {Op: MutAddEdge, From: 0, To: 1, Label: "knows"}},
		"edge from missing":     {{Op: MutAddEdge, From: 42, To: 0, Label: "x"}},
		"remove missing edge":   {{Op: MutRemoveEdge, From: 0, To: 2, Label: "knows"}},
		"remove edge twice":     {{Op: MutRemoveEdge, From: 0, To: 1, Label: "knows"}, {Op: MutRemoveEdge, From: 0, To: 1, Label: "knows"}},
		"setAttr on removed":    {{Op: MutRemoveNode, Node: 2}, {Op: MutSetAttr, Node: 2, Attr: "age", Value: Int(1)}},
		"setAttr empty name":    {{Op: MutSetAttr, Node: 0, Attr: "", Value: Int(1)}},
		"unknown op":            {{Op: MutOp(99)}},
		"remove cascaded edge":  {{Op: MutRemoveNode, Node: 1}, {Op: MutRemoveEdge, From: 0, To: 1, Label: "knows"}},
		"re-remove added":       {{Op: MutAddNode, Label: "P"}, {Op: MutRemoveNode, Node: 5}, {Op: MutRemoveNode, Node: 5}},
		"batch-local edge gone": {{Op: MutAddNode, Label: "P"}, {Op: MutAddEdge, From: 5, To: 0, Label: "x"}, {Op: MutRemoveNode, Node: 5}, {Op: MutRemoveEdge, From: 5, To: 0, Label: "x"}},
	}
	for name, batch := range bad {
		if _, _, err := ApplyBatch(g, batch); err == nil {
			t.Errorf("%s: batch unexpectedly accepted", name)
		}
	}
	if g.Version() != 1 || g.NumEdges() != 6 {
		t.Error("rejected batches must leave the base untouched")
	}
	// Mutating an unfrozen graph is rejected too.
	if _, _, err := ApplyBatch(New(), []Mutation{{Op: MutAddNode, Label: "P"}}); err == nil {
		t.Error("ApplyBatch on unfrozen graph should fail")
	}
}

func TestParallelEdgeAccounting(t *testing.T) {
	g := New()
	a := g.AddNode("N", nil)
	b := g.AddNode("N", nil)
	if err := g.AddEdge(a, b, "e"); err != nil {
		t.Fatal(err)
	}
	g.Freeze()

	// remove, re-add, remove again: net zero instances even though the
	// deletion count (2) exceeds the base multiplicity (1).
	ng, _, err := ApplyBatch(g, []Mutation{
		{Op: MutRemoveEdge, From: a, To: b, Label: "e"},
		{Op: MutAddEdge, From: a, To: b, Label: "e"},
		{Op: MutRemoveEdge, From: a, To: b, Label: "e"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ng.NumEdges() != 0 || len(ng.Out(a)) != 0 {
		t.Fatalf("net edge count = %d, want 0", ng.NumEdges())
	}
	if err := CheckInvariants(ng); err != nil {
		t.Fatal(err)
	}

	// Three parallel instances added on top of one: four total, removing
	// three leaves one.
	ng2, _, err := ApplyBatch(g, []Mutation{
		{Op: MutAddEdge, From: a, To: b, Label: "e"},
		{Op: MutAddEdge, From: a, To: b, Label: "e"},
		{Op: MutAddEdge, From: a, To: b, Label: "e"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ng3, _, err := ApplyBatch(ng2, []Mutation{
		{Op: MutRemoveEdge, From: a, To: b, Label: "e"},
		{Op: MutRemoveEdge, From: a, To: b, Label: "e"},
		{Op: MutRemoveEdge, From: a, To: b, Label: "e"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ng3.NumEdges() != 1 {
		t.Fatalf("4 - 3 parallel instances = %d, want 1", ng3.NumEdges())
	}
	if err := CheckInvariants(ng3); err != nil {
		t.Fatal(err)
	}
}

// randomBatch generates a mutation batch against the model's current
// state. Most ops are valid; a small fraction intentionally target dead
// or out-of-range nodes so the differential test also exercises rejection
// agreement.
func randomBatch(rng *rand.Rand, m *mutModel, size int) []Mutation {
	labels := []string{"P", "Q", "R"}
	elabels := []string{"e", "f"}
	attrs := []string{"a", "b", "c", "d"}
	randVal := func() Value {
		switch rng.Intn(6) {
		case 0:
			return Null // deletes
		case 1:
			return Str(fmt.Sprintf("s%d", rng.Intn(4)))
		case 2:
			return Bool(rng.Intn(2) == 0)
		case 3:
			return Num(float64(rng.Intn(10)) / 4)
		default:
			return Int(int64(rng.Intn(20)))
		}
	}
	pick := func() NodeID {
		if rng.Intn(12) == 0 { // sometimes invalid on purpose
			return NodeID(rng.Intn(len(m.nodes)+3)) - 1
		}
		live := m.liveIDs()
		if len(live) == 0 {
			return -1
		}
		return live[rng.Intn(len(live))]
	}
	sim := m.clone() // track in-batch state so most generated ops are valid
	batch := make([]Mutation, 0, size)
	for len(batch) < size {
		var op Mutation
		switch rng.Intn(10) {
		case 0, 1:
			var as []AttrPair
			for _, a := range attrs {
				if rng.Intn(3) == 0 {
					as = append(as, AttrPair{Name: a, Value: randVal()})
				}
			}
			op = Mutation{Op: MutAddNode, Label: labels[rng.Intn(len(labels))], Attrs: as}
		case 2:
			op = Mutation{Op: MutRemoveNode, Node: pickFrom(rng, sim)}
		case 3, 4, 5:
			op = Mutation{Op: MutAddEdge, From: pickFrom(rng, sim), To: pickFrom(rng, sim), Label: elabels[rng.Intn(len(elabels))]}
		case 6:
			if len(sim.edges) > 0 && rng.Intn(8) != 0 {
				e := sim.edges[rng.Intn(len(sim.edges))]
				op = Mutation{Op: MutRemoveEdge, From: NodeID(e.from), To: NodeID(e.to), Label: e.label}
			} else {
				op = Mutation{Op: MutRemoveEdge, From: pick(), To: pick(), Label: elabels[rng.Intn(len(elabels))]}
			}
		default:
			op = Mutation{Op: MutSetAttr, Node: pickFrom(rng, sim), Attr: attrs[rng.Intn(len(attrs))], Value: randVal()}
		}
		batch = append(batch, op)
		sim.applyOne(op) // ignore error: invalid ops just don't advance sim
	}
	return batch
}

func pickFrom(rng *rand.Rand, sim *mutModel) NodeID {
	if rng.Intn(12) == 0 {
		return NodeID(rng.Intn(len(sim.nodes)+3)) - 1
	}
	live := sim.liveIDs()
	if len(live) == 0 {
		return -1
	}
	return live[rng.Intn(len(live))]
}

// TestMutateDifferentialRandom starts seeds 1–6 from the sample graph and
// the nodesN runs from graphs whose last chunk is one short of full, full,
// and one or chunkLen+1 over, and from one whose label buckets span several
// permutation pieces.
func TestMutateDifferentialRandom(t *testing.T) {
	for i, n := range []int{0, 0, 0, 0, 0, 0, chunkLen - 1, chunkLen, chunkLen + 1, 2*chunkLen + 1, 4 * permRun} {
		seed, name := int64(i+1), fmt.Sprintf("seed%d", i+1)
		if n > 0 {
			name = fmt.Sprintf("nodes%d", n)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			base := buildSample(t)
			if n > 0 {
				base = snapshotTestGraph(t, seed, n)
			}
			l := NewLive(base)
			defer l.Close()
			m := modelFrom(base)
			for round := 0; round < 30; round++ {
				batch := randomBatch(rng, m, 1+rng.Intn(8))
				modelErr := m.applyBatch(batch)
				before := l.Version()
				_, applyErr := l.Apply(batch)
				if (modelErr == nil) != (applyErr == nil) {
					t.Fatalf("round %d: oracle err=%v, ApplyBatch err=%v\nbatch: %+v", round, modelErr, applyErr, batch)
				}
				if applyErr != nil {
					if l.Version() != before {
						t.Fatalf("round %d: rejected batch bumped version", round)
					}
					continue
				}
				checkAgainstModel(t, l.Graph(), m)
				if rng.Intn(6) == 0 {
					v := l.Version()
					compacted, resurrected := l.Compact()
					if compacted.Version() != v {
						t.Fatalf("round %d: compaction changed version %d -> %d", round, v, compacted.Version())
					}
					if resurrected.HasTombstones() {
						t.Fatalf("round %d: resurrected image has tombstones", round)
					}
					if err := CheckInvariants(resurrected); err != nil {
						t.Fatalf("round %d: resurrected invariants: %v", round, err)
					}
					checkAgainstModel(t, compacted, m)
				}
			}
		})
	}
}

func TestCompactPreservesCoordinates(t *testing.T) {
	base := buildSample(t)
	l := NewLive(base)
	defer l.Close()
	batches := [][]Mutation{
		{{Op: MutAddNode, Label: "Person", Attrs: []AttrPair{{Name: "age", Value: Int(19)}}},
			{Op: MutAddEdge, From: 5, To: 1, Label: "knows"}},
		{{Op: MutRemoveNode, Node: 2}, {Op: MutSetAttr, Node: 3, Attr: "employees", Value: Int(150)}},
		{{Op: MutAddNode, Label: "Tag"}, {Op: MutAddEdge, From: 6, To: 5, Label: "tags"}},
	}
	for _, b := range batches {
		if _, err := l.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	pre := l.Acquire()
	defer pre.Close()
	compacted, _ := l.Compact()

	// Every cache coordinate must be bit-identical: dictionaries, buckets,
	// permutation indexes, label positions — and therefore the version.
	if compacted.Version() != pre.Version() {
		t.Fatalf("version %d -> %d across compaction", pre.Version(), compacted.Version())
	}
	if fmt.Sprint(pre.DictLabels()) != fmt.Sprint(compacted.DictLabels()) {
		t.Errorf("label dict changed: %v -> %v", pre.DictLabels(), compacted.DictLabels())
	}
	if fmt.Sprint(pre.DictAttrs()) != fmt.Sprint(compacted.DictAttrs()) {
		t.Errorf("attr dict changed: %v -> %v", pre.DictAttrs(), compacted.DictAttrs())
	}
	for _, name := range pre.NodeLabels() {
		if fmt.Sprint(pre.NodesByLabel(name)) != fmt.Sprint(compacted.NodesByLabel(name)) {
			t.Errorf("bucket %q changed across compaction", name)
		}
	}
	for k, perm := range pre.indexes {
		cp, ok := compacted.indexes[k]
		if !ok || fmt.Sprint(perm.nodes()) != fmt.Sprint(cp.nodes()) {
			t.Errorf("index (%d,%d) changed: %v -> %v", k.label, k.attr, perm.nodes(), cp.nodes())
		}
	}
	if len(pre.indexes) != len(compacted.indexes) {
		t.Errorf("index count changed: %d -> %d", len(pre.indexes), len(compacted.indexes))
	}
	for v := 0; v < pre.NumNodes(); v++ {
		if pre.PackedLabelPos(NodeID(v)) != compacted.PackedLabelPos(NodeID(v)) {
			t.Errorf("labelPos[%d] changed", v)
		}
	}
	if err := Equivalent(pre, compacted); err != nil {
		t.Fatal(err)
	}
	if err := CheckInvariants(compacted); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotWritersRefuseTombstones(t *testing.T) {
	g := buildSample(t)
	ng, _, err := ApplyBatch(g, []Mutation{{Op: MutRemoveNode, Node: 4}})
	if err != nil {
		t.Fatal(err)
	}
	var sink discardWriter
	if err := WriteSnapshot(&sink, ng); err == nil {
		t.Error("WriteSnapshot accepted a tombstoned graph")
	}
	// The resurrected image is the writable checkpoint form.
	l := NewLive(ng)
	defer l.Close()
	_, res := l.Compact()
	if err := WriteSnapshot(&sink, res); err != nil {
		t.Errorf("WriteSnapshot on resurrected image: %v", err)
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

func TestLiveConcurrentReaders(t *testing.T) {
	base := buildSample(t)
	l := NewLive(base)
	defer l.Close()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				g := l.Acquire()
				n := 0
				for v := 0; v < g.NumNodes(); v++ {
					if g.Alive(NodeID(v)) {
						n += len(g.Out(NodeID(v))) + len(g.AttrPairs(NodeID(v)))
					}
				}
				_ = n
				g.Close()
			}
		}()
	}
	rng := rand.New(rand.NewSource(7))
	m := modelFrom(base)
	for round := 0; round < 40; round++ {
		batch := randomBatch(rng, m, 1+rng.Intn(5))
		modelErr := m.applyBatch(batch)
		_, applyErr := l.Apply(batch)
		if (modelErr == nil) != (applyErr == nil) {
			t.Fatalf("round %d: oracle and Apply disagree: %v vs %v", round, modelErr, applyErr)
		}
		if round%10 == 9 {
			l.Compact()
		}
	}
	close(stop)
	wg.Wait()
	checkAgainstModel(t, l.Graph(), m)
}

// TestChainedBatchesLeaveAncestorsIntact: a generation writes only chunks
// it cloned, so after twenty chained batches every ancestor still equals
// the rebuild of its content taken when it was current — while a reader
// walks the first generation throughout (run under -race).
func TestChainedBatchesLeaveAncestorsIntact(t *testing.T) {
	base := snapshotTestGraph(t, 43, 3*chunkLen+5)
	gens, stop, done := []*Graph{base}, make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for v := NodeID(0); int(v) < base.NumNodes(); v++ {
				_, _, _ = base.Out(v), base.AttrPairs(v), base.EdgeRun(v, 0, false)
			}
		}
	}()
	rng, m := rand.New(rand.NewSource(5)), modelFrom(base)
	copies := []*Graph{m.build(t)}
	for len(gens) <= 20 {
		batch := randomBatch(rng, m, 1+rng.Intn(8))
		if m.applyBatch(batch) != nil {
			continue
		}
		ng, _, err := ApplyBatch(gens[len(gens)-1], batch)
		if err != nil {
			t.Fatal(err)
		}
		gens, copies = append(gens, ng), append(copies, m.build(t))
	}
	close(stop)
	<-done
	for i, g := range gens {
		if err := CheckInvariants(g); err != nil {
			t.Fatalf("generation %d: %v", i, err)
		}
		if err := Equivalent(g, copies[i]); err != nil {
			t.Fatalf("generation %d: %v", i, err)
		}
	}
}

func TestMutateMappedBase(t *testing.T) {
	// Mutations on top of a memory-mapped snapshot must retain the mapping
	// for as long as any derived generation is alive.
	dir := t.TempDir()
	path := dir + "/g.fsnap"
	g := buildSample(t)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	mg, err := OpenSnapshotMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLive(mg)
	m := modelFrom(mg)
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 10; round++ {
		batch := randomBatch(rng, m, 1+rng.Intn(6))
		modelErr := m.applyBatch(batch)
		_, applyErr := l.Apply(batch)
		if (modelErr == nil) != (applyErr == nil) {
			t.Fatalf("round %d: %v vs %v", round, modelErr, applyErr)
		}
	}
	cur := l.Acquire()
	checkAgainstModel(t, cur, m)
	// Close the Live first: the acquired generation must keep the mapping
	// (and thus all string data) alive on its own.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	checkAgainstModel(t, cur, m)
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestVersionMonotonic(t *testing.T) {
	g := buildSample(t)
	l := NewLive(g)
	defer l.Close()
	last := l.Version()
	for i := 0; i < 5; i++ {
		res, err := l.Apply([]Mutation{{Op: MutAddNode, Label: "P"}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Version != last+1 || l.Version() != last+1 {
			t.Fatalf("version %d after %d", res.Version, last)
		}
		last = res.Version
	}
	if l.OpsSinceCompact() != 5 {
		t.Errorf("OpsSinceCompact = %d, want 5", l.OpsSinceCompact())
	}
	l.Compact()
	if l.OpsSinceCompact() != 0 {
		t.Errorf("OpsSinceCompact after Compact = %d, want 0", l.OpsSinceCompact())
	}
	if l.Version() != last {
		t.Errorf("Compact changed version %d -> %d", last, l.Version())
	}
}
