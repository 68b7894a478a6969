package graph

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
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
				if c.ok != nil && !c.ok(i, mapped, res.Touched) {
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
		t.Fatalf("touched %+v, want %+v", res.Touched, want)
	}
	age, name, emp := g.AttrIDOf("age"), g.AttrIDOf("name"), g.AttrIDOf("employees")
	person, org := g.LookupLabel("Person"), g.LookupLabel("Org")
	for _, a := range []AttrID{name, emp} {
		bc, nc := &g.cols[a], &ng.cols[a]
		if !sameArray(bc.present, nc.present) || !(sameArray(bc.nums, nc.nums) || sameArray(bc.strs, nc.strs)) {
			t.Errorf("untouched column %q was copied", g.attrTable[a])
		}
		if !sameArray(g.domains[a], ng.domains[a]) {
			t.Errorf("untouched domain %q was copied", g.attrTable[a])
		}
	}
	if sameArray(g.cols[age].nums, ng.cols[age].nums) || sameArray(g.domains[age], ng.domains[age]) {
		t.Error("the edited column or its domain still aliases the base")
	}
	for k, perm := range g.indexes {
		if touched := k == (labelAttr{person, age}); sameArray(perm, ng.indexes[k]) == touched {
			t.Errorf("index (%s, %s): shared = %v", g.labels[k.label], g.attrTable[k.attr], !touched)
		}
	}
	for _, l := range []LabelID{person, org} {
		if !sameArray(g.byLabel[l], ng.byLabel[l]) {
			t.Errorf("bucket %q was copied", g.labels[l])
		}
	}
	sharedRow := func(a, b []Edge) bool { return len(a)+len(b) == 0 || sameArray(a, b) }
	for v := range g.out {
		if sharedRow(g.out[v], ng.out[v]) != (v != 0) || sharedRow(g.in[v], ng.in[v]) != (v != 2) {
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
