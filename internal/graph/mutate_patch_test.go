package graph

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// patchCase is a run of batches over fuzzSeedGraph (node 0: a Person with
// gender, name, score 0.25 and yearsOfExp; node 1: a Person with gender
// only; node 2: an Org with employees) aimed at one branch of ApplyBatch's
// patch paths. Batches stay inside the fuzz script's alphabet, so each case
// is also a FuzzMutateEquivalence seed (fuzzEncode).
type patchCase struct {
	name    string
	batches [][]Mutation
	// ok, when set, inspects what batch i reported. mapped: the base was a
	// mapped snapshot, where string columns start as refs.
	ok func(i int, mapped bool, tc Touched) bool
}

func addP(label string, attrs ...AttrPair) Mutation {
	return Mutation{Op: MutAddNode, Label: label, Attrs: attrs}
}
func set(v NodeID, attr string, val Value) Mutation {
	return Mutation{Op: MutSetAttr, Node: v, Attr: attr, Value: val}
}
func score(v Value) AttrPair { return AttrPair{Name: "score", Value: v} }

var negZero = Num(math.Copysign(0, -1))

var patchCases = []patchCase{
	{"overwritten value survives on another label", [][]Mutation{
		{addP("Person", score(Int(5))), addP("Org", score(Int(5)))},
		{set(3, "score", Int(6))},
	}, func(i int, _ bool, tc Touched) bool {
		return i == 0 || (tc.DomainAdded == 1 && tc.DomainDropped == 0 && tc.ColumnsPatched == 1 && tc.ColumnsRebuilt == 0)
	}},
	{"overwritten value survives on the same label", [][]Mutation{
		{addP("Person", score(Int(5))), addP("Person", score(Int(5)))},
		{set(3, "score", Int(6))},
	}, func(i int, _ bool, tc Touched) bool {
		return i == 0 || (tc.DomainAdded == 1 && tc.DomainDropped == 0 && tc.IndexesMerged == 1)
	}},
	{"sole holder overwritten", [][]Mutation{
		{addP("Person", score(Int(5)))},
		{set(3, "score", Int(6))},
	}, func(i int, _ bool, tc Touched) bool { return i == 0 || (tc.DomainAdded == 1 && tc.DomainDropped == 1) }},
	{"overwritten by itself", [][]Mutation{
		{set(0, "score", Int(5))},
		{set(0, "score", Int(5))},
	}, func(i int, _ bool, tc Touched) bool {
		return i == 0 || (tc.DomainAdded == 0 && tc.DomainDropped == 0 && tc.ColumnsPatched == 1)
	}},
	{"last occurrences cleared by RemoveNode", [][]Mutation{
		{{Op: MutRemoveNode, Node: 2}}, // the only Org: bucket, index and domain go
		{{Op: MutRemoveNode, Node: 0}},
	}, func(i int, _ bool, tc Touched) bool {
		return tc.LabelsReranked == 1 && tc.DomainAdded == 0 && tc.DomainDropped == []int{1, 4}[i]
	}},
	{"NaN and signed zeros", [][]Mutation{
		{addP("Person", score(Int(0))), addP("Person", score(Num(math.NaN())))},
		{set(4, "score", negZero)}, // NaN goes; -0 is the 0 already there
		{set(3, "score", Num(math.NaN())), set(0, "score", Num(math.NaN()))}, // 0.25 goes, NaN is back, 0 stays as -0
		{set(4, "score", Null)}, // now 0 goes
	}, func(i int, _ bool, tc Touched) bool {
		return [][2]int{{2, 0}, {0, 1}, {1, 1}, {0, 1}}[i] == [2]int{tc.DomainAdded, tc.DomainDropped}
	}},
	{"a string into a numeric column, and out again", [][]Mutation{
		{addP("Person", score(Int(5)))},
		{set(0, "score", Str("12"))}, // uniform -> mixed: builder
		{set(0, "score", Int(3))},    // mixed -> uniform: builder
		{set(0, "score", Int(4))},    // uniform, same kind: patched
	}, func(i int, _ bool, tc Touched) bool {
		return [][2]int{{1, 0}, {0, 1}, {0, 1}, {1, 0}}[i] == [2]int{tc.ColumnsPatched, tc.ColumnsRebuilt}
	}},
	{"first and second edit of a string column", [][]Mutation{
		{set(1, "gender", Str("12"))},
		{set(0, "gender", Str("true"))},
	}, func(i int, mapped bool, tc Touched) bool {
		if i == 0 && mapped { // refs of the snapshot's string table become heap strings
			return tc.ColumnsRebuilt == 1 && tc.ColumnsPatched == 0
		}
		return tc.ColumnsRebuilt == 0 && tc.ColumnsPatched == 1
	}},
	{"bool column flipped", [][]Mutation{
		{addP("Person", AttrPair{Name: "k0", Value: Bool(true)}), addP("Person", AttrPair{Name: "k0", Value: Bool(false)})},
		{set(3, "k0", Bool(false))},
	}, func(i int, _ bool, tc Touched) bool {
		return i == 0 || (tc.ColumnsPatched == 1 && tc.DomainAdded == 0 && tc.DomainDropped == 1)
	}},
	{"column emptied", [][]Mutation{
		{set(0, "score", Null)},
	}, func(_ int, _ bool, tc Touched) bool { return tc.ColumnsRebuilt == 1 && tc.DomainDropped == 1 }},
	{"new edge label", [][]Mutation{
		{{Op: MutAddEdge, From: 0, To: 1, Label: "x"}}, // the run tables widen: all rows
		{{Op: MutAddEdge, From: 1, To: 0, Label: "x"}},
	}, func(i int, _ bool, tc Touched) bool {
		return tc.DerivedRebuilt == (i == 0) && tc.OutRows == 1 && tc.InRows == 1
	}},
	{"node added and removed in one batch", [][]Mutation{
		{addP("Person", AttrPair{Name: "k0", Value: Bool(true)}), {Op: MutAddEdge, From: 3, To: 0, Label: "recommend"}, {Op: MutRemoveNode, Node: 3}},
	}, func(_ int, _ bool, tc Touched) bool {
		return tc == Touched{}
	}},
	{"no attribute touched", [][]Mutation{
		{{Op: MutAddEdge, From: 1, To: 0, Label: "recommend"}, {Op: MutRemoveEdge, From: 0, To: 2, Label: "worksAt"}},
	}, func(_ int, _ bool, tc Touched) bool {
		return tc == Touched{OutRows: 2, InRows: 2}
	}},
	{"no edge touched", [][]Mutation{
		{set(1, "name", Str("")), set(0, "name", Null)},
	}, func(_ int, _ bool, tc Touched) bool {
		return tc.OutRows == 0 && tc.InRows == 0 && tc.LabelsReranked == 0
	}},
}

// TestApplyBatchPatchPaths runs every patch case over a heap and a mapped
// base, holding each generation to CheckInvariants (which recomputes
// domains, positions, signatures and run tables from scratch), to
// equivalence with the model's rebuild, and to Freeze's column layout.
func TestApplyBatchPatchPaths(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seed.fsnap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(f, fuzzSeedGraph()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range patchCases {
		for _, mapped := range []bool{false, true} {
			base := fuzzSeedGraph()
			if mapped {
				if base, err = OpenSnapshotMapped(path); err != nil {
					t.Fatal(err)
				}
			}
			l, m := NewLive(base), modelFrom(base)
			for i, batch := range c.batches {
				if err := m.applyBatch(batch); err != nil {
					t.Fatalf("%s: batch %d: %v", c.name, i, err)
				}
				res, err := l.Apply(batch)
				if err != nil {
					t.Fatalf("%s: batch %d: %v", c.name, i, err)
				}
				checkAgainstModel(t, l.Graph(), m)
				if g := l.Graph(); !g.HasTombstones() {
					// The decoder rejects a payload left under a cleared cell.
					var snap bytes.Buffer
					if err := WriteSnapshot(&snap, g); err != nil {
						t.Fatalf("%s: batch %d: %v", c.name, i, err)
					}
					if _, err := ReadSnapshot(&snap); err != nil {
						t.Fatalf("%s: batch %d: generation does not snapshot: %v", c.name, i, err)
					}
				}
				tc := res.Touched
				tc.ChunkBytes = 0 // TestApplyBatchClonesTouchedChunks pins the chunks
				if c.ok != nil && !c.ok(i, mapped, tc) {
					t.Errorf("%s (mapped=%v): batch %d touched %+v", c.name, mapped, i, res.Touched)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// sameArray reports whether two non-empty slices start at the same element.
func sameArray[T any](a, b []T) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// TestApplyBatchSharesUntouched: what a batch does not touch, the new
// generation holds by reference — columns, domains, permutations, buckets
// and adjacency rows alias the base's arrays — and a touched attribute
// whose value set did not move keeps the base's domain too.
func TestApplyBatchSharesUntouched(t *testing.T) {
	g := buildSample(t)
	ng, res, err := ApplyBatch(g, []Mutation{
		set(0, "age", Int(40)), // bob's age: 30 leaves the domain, nothing enters
		{Op: MutAddEdge, From: 0, To: 2, Label: "knows"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := (Touched{OutRows: 1, InRows: 1, ColumnsPatched: 1, IndexesMerged: 1, DomainDropped: 1}); res.Touched != want {
		if want.ChunkBytes = res.Touched.ChunkBytes; res.Touched != want {
			t.Fatalf("touched %+v, want %+v", res.Touched, want)
		}
	}
	age, name, emp := g.AttrIDOf("age"), g.AttrIDOf("name"), g.AttrIDOf("employees")
	person, org := g.LookupLabel("Person"), g.LookupLabel("Org")
	for _, a := range []AttrID{name, emp} {
		bc, nc := &g.cols[a], &ng.cols[a]
		if !sameArray(bc.present.flat, nc.present.flat) || !(sameArray(bc.nums.flat, nc.nums.flat) || sameArray(bc.strs.flat, nc.strs.flat)) {
			t.Errorf("untouched column %q was copied", g.attrTable[a])
		}
		if !sameArray(g.domains[a], ng.domains[a]) {
			t.Errorf("untouched domain %q was copied", g.attrTable[a])
		}
	}
	if sameArray(g.cols[age].nums.flat, ng.cols[age].nums.flat) || sameArray(g.domains[age], ng.domains[age]) {
		t.Error("the edited column or its domain still aliases the base")
	}
	for k, perm := range g.indexes {
		if touched := k == (labelAttr{person, age}); (perm == ng.indexes[k]) == touched {
			t.Errorf("index (%s, %s): shared = %v", g.labels[k.label], g.attrTable[k.attr], !touched)
		}
	}
	for _, l := range []LabelID{person, org} {
		if !sameArray(g.byLabel[l], ng.byLabel[l]) {
			t.Errorf("bucket %q was copied", g.labels[l])
		}
	}
	sharedRow := func(a, b []Edge) bool { return len(a)+len(b) == 0 || sameArray(a, b) }
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		if sharedRow(g.Out(v), ng.Out(v)) != (v != 0) || sharedRow(g.In(v), ng.In(v)) != (v != 2) {
			t.Errorf("node %d: only out row 0 and in row 2 should have been rebuilt", v)
		}
	}

	// Overwriting a value with itself touches the column, not its domain.
	ng2, res, err := ApplyBatch(ng, []Mutation{set(1, "age", Int(40))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Touched.DomainAdded+res.Touched.DomainDropped != 0 || !sameArray(ng.domains[age], ng2.domains[age]) {
		t.Errorf("unchanged domain was rebuilt: %+v", res.Touched)
	}
}

// checkChunks asserts that a table forked from base, or base itself, holds
// base's chunk at every index of a full chunk of base, except at the
// touched ones, where it holds a copy.
func checkChunks[T any](t *testing.T, name string, ng, base Table[T], touched ...int) {
	t.Helper()
	at := func(t *Table[T], k int) *T {
		if t.c == nil {
			return &t.flat[k<<chunkShift]
		}
		return &t.c[k][0]
	}
	for k := 0; k < base.n>>chunkShift; k++ {
		if shared := at(&ng, k) == at(&base, k); shared == slices.Contains(touched, k) {
			t.Errorf("%s: chunk %d shared = %v", name, k, shared)
		}
	}
}

// TestApplyBatchClonesTouchedChunks: over a graph of several chunks, a
// generation holds its base's chunk of every per-node table except where
// the batch wrote a row or cell, and adds chunks only past the base's end.
// Unchanged signatures and label ranks leave their chunks shared too.
func TestApplyBatchClonesTouchedChunks(t *testing.T) {
	const n = 5 * chunkLen
	g := New()
	for v := 0; v < n; v++ {
		g.AddNode("P", map[string]Value{"score": Int(int64(v)), "name": Str(fmt.Sprint(v))})
	}
	for v := 0; v < n; v++ {
		if err := g.AddEdge(NodeID(v), NodeID((v+1)%n), "e"); err != nil {
			t.Fatal(err)
		}
	}
	g.Freeze()
	from, to, edited := chunkLen+2, 4*chunkLen+3, 3*chunkLen+1
	ng, res, err := ApplyBatch(g, []Mutation{
		set(NodeID(edited), "score", Int(-1)),
		{Op: MutAddEdge, From: NodeID(from), To: NodeID(to), Label: "e"},
		addP("P", score(Int(7))),
	})
	if err != nil {
		t.Fatal(err)
	}
	k := func(v int) int { return v >> chunkShift }
	checkChunks(t, "node labels", ng.nodeLabels, g.nodeLabels)
	checkChunks(t, "out rows", ng.out, g.out, k(from))
	checkChunks(t, "in rows", ng.in, g.in, k(to))
	checkChunks(t, "label positions", ng.labelPos, g.labelPos)
	checkChunks(t, "out signatures", ng.sigOut, g.sigOut)
	checkChunks(t, "in signatures", ng.sigIn, g.sigIn)
	sc, nc := g.AttrIDOf("score"), g.AttrIDOf("name")
	checkChunks(t, "score", ng.cols[sc].nums, g.cols[sc].nums, k(edited))
	checkChunks(t, "score presence", ng.cols[sc].present, g.cols[sc].present, 0)
	checkChunks(t, "name", ng.cols[nc].strs, g.cols[nc].strs)
	checkChunks(t, "name presence", ng.cols[nc].present, g.cols[nc].present)
	for dir, r := range [][2]Runs{{ng.outRuns, g.outRuns}, {ng.inRuns, g.inRuns}} {
		for i := 0; i < n>>chunkShift; i++ {
			if shared := &r[0].row(i << chunkShift)[0] == &r[1].row(i << chunkShift)[0]; shared == (i == []int{k(from), k(to)}[dir]) {
				t.Errorf("run table %d: chunk %d shared = %v", dir, i, shared)
			}
		}
	}
	if b := res.Touched.ChunkBytes; b <= 0 || b > 8<<10 {
		t.Errorf("ChunkBytes = %d, want a handful of chunks", b)
	}
	for _, gen := range []*Graph{g, ng} {
		if err := CheckInvariants(gen); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPermIndexMerge: chained merges of a permutation equal a sorted
// rebuild after every step — removals, a piece emptied, a cluster of
// insertions that splits its piece, insertions past the end — read back
// through at and search; and a merge that removes one entry shares every
// other piece with its base.
func TestPermIndexMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	less := func(a, b NodeID) bool { return a < b }
	var want []NodeID
	for v := 0; v < 5*permRun; v++ {
		want = append(want, NodeID(v*10000))
	}
	p, used := &permIndex{flat: slices.Clone(want)}, map[NodeID]bool{}
	fresh := func(lo, span int) NodeID {
		for {
			if v := NodeID(lo + 1 + rng.Intn(span)); v%10000 != 0 && !used[v] {
				used[v] = true
				return v
			}
		}
	}
	for step := 0; step < 40; step++ {
		var gone []int
		for i := rng.Intn(6); i > 0 && len(want) > 0; i-- {
			gone = append(gone, rng.Intn(len(want)))
		}
		if len(p.ends) > 1 { // the last entry of a piece
			gone = append(gone, int(p.ends[rng.Intn(len(p.ends)-1)])-1)
		}
		if step%7 == 3 && len(want) > 3*permRun { // empty the piece around a position
			at := rng.Intn(len(want) - 3*permRun)
			for i := at; i < at+3*permRun; i++ {
				gone = append(gone, i)
			}
		}
		var moved []NodeID
		for i := rng.Intn(4); i > 0; i-- {
			moved = append(moved, fresh(0, 5*permRun*10000))
		}
		switch step % 5 {
		case 1: // one gap, enough nodes to split its piece
			lo := rng.Intn(5*permRun) * 10000
			for i := 0; i < 3*permRun; i++ {
				moved = append(moved, fresh(lo, 9999))
			}
		case 2: // past the end
			moved = append(moved, fresh(6*permRun*10000, 1000))
		}
		slices.Sort(gone)
		gone = slices.Compact(gone)
		slices.Sort(moved)
		for i := len(gone) - 1; i >= 0; i-- {
			want = slices.Delete(want, gone[i], gone[i]+1)
		}
		want = append(want, moved...)
		slices.Sort(want)
		p = p.merge(gone, moved, less)
		if got := p.nodes(); !slices.Equal(got, want) || p.len() != len(want) {
			t.Fatalf("step %d: merge holds %d nodes, want %d", step, len(got), len(want))
		}
		for _, s := range p.pieces {
			if len(s) == 0 || len(s) > 2*permRun {
				t.Fatalf("step %d: piece of %d entries", step, len(s))
			}
		}
		for i := 0; i < 20 && len(want) > 0; i++ {
			j := rng.Intn(len(want))
			x := want[j] + NodeID(rng.Intn(3)) - 1
			wantAt, _ := slices.BinarySearch(want, x)
			if p.at(j) != want[j] || p.search(func(v NodeID) bool { return v >= x }) != wantAt {
				t.Fatalf("step %d: at(%d) = %d, want %d; search %d", step, j, p.at(j), want[j], x)
			}
		}
	}
	q := p.merge([]int{p.len() / 2}, nil, less)
	shared := 0
	for _, s := range q.pieces {
		for _, b := range p.pieces {
			if &s[0] == &b[0] && len(s) == len(b) {
				shared++
			}
		}
	}
	if shared != len(p.pieces)-1 {
		t.Errorf("one removal shares %d of %d pieces, want all but one", shared, len(p.pieces))
	}
}
