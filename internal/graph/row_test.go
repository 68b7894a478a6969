package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// rowValues are the edge cases of a row: absent, non-finite numbers, both
// zeros, integers and fractions, and the other kinds mixed in (a number
// and a string of the same text among them).
var rowValues = []Value{Null, Num(math.NaN()), Num(math.Inf(1)), Num(math.Inf(-1)), Num(math.Copysign(0, -1)),
	Int(0), Int(5), Num(2.5), Int(-7), Num(1e9), Str("5"), Str("b"), Str("a"), Bool(true), Bool(false)}

// rowGraph builds n nodes over two labels with one column per layout: a
// numeric one with the non-finite and signed-zero cases, a small integer
// one, a string one, a bool one and a mixed-kind one; every column leaves
// some nodes without a value.
func rowGraph(n int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New()
	for i := 0; i < n; i++ {
		attrs := map[string]Value{}
		if x := rowValues[rng.Intn(10)]; x.Kind() == KindNumber {
			attrs["num"] = x
		}
		if k := rng.Intn(9); k < 8 {
			attrs["small"] = Int(int64(k * 3))
		}
		if k := rng.Intn(5); k < 4 {
			attrs["str"] = Str(string(rune('a' + k)))
		}
		if k := rng.Intn(3); k < 2 {
			attrs["flag"] = Bool(k == 1)
		}
		if x := rowValues[rng.Intn(len(rowValues))]; !x.IsNull() {
			attrs["mixed"] = x
		}
		label := "P"
		if i%4 == 3 {
			label = "Q"
		}
		g.AddNode(label, attrs)
	}
	g.Freeze()
	return g
}

// checkRows is the rows' oracle: for every attribute, IDs[v] is NoValue
// exactly where AttrValue reads Null and otherwise the domain entry equal
// to it, First[i] is the lowest node reading entry i, and Held counts the
// nodes reading a value.
func checkRows(t *testing.T, g *Graph) {
	t.Helper()
	if g.AttrRow(InvalidAttr) != nil || g.AttrRow(AttrID(g.NumAttrs())) != nil {
		t.Fatal("a row for an attribute the graph never interned")
	}
	for a := AttrID(0); int(a) < g.NumAttrs(); a++ {
		dom, r := g.ActiveDomainByID(a), g.AttrRow(a)
		if len(r.IDs) != g.NumNodes() || len(r.First) != len(dom) {
			t.Fatalf("%s: %d ids, %d firsts for %d nodes, %d domain entries", g.AttrNameOf(a), len(r.IDs), len(r.First), g.NumNodes(), len(dom))
		}
		first, held := make([]NodeID, len(dom)), 0
		for i := range first {
			first[i] = InvalidNode
		}
		for v := NodeID(0); int(v) < g.NumNodes(); v++ {
			x, id := g.AttrValue(v, a), r.IDs[v]
			switch {
			case x.IsNull() && id == NoValue:
				continue
			case x.IsNull() || id < 0 || int(id) >= len(dom) || !dom[id].Equal(x) || dom[id].Kind() != x.Kind():
				t.Fatalf("%s: node %d reads %v, row holds %d", g.AttrNameOf(a), v, x, id)
			}
			if held++; first[id] == InvalidNode {
				first[id] = v
			}
		}
		if !slices.Equal(first, r.First) || held != r.Held {
			t.Fatalf("%s: first holders %v of %d, want %v of %d", g.AttrNameOf(a), r.First, r.Held, first, held)
		}
	}
}

// backings returns g heap-built, decoded from its snapshot and mapped from
// it; the caller closes the mapped one.
func backings(t *testing.T, n int, seed int64) map[string]*Graph {
	t.Helper()
	heap := rowGraph(n, seed)
	mapped, err := OpenSnapshotMapped(writeSnapshotTemp(t, heap))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Graph{"heap": heap, "decoded": snapshotRoundTrip(t, rowGraph(n, seed)), "mapped": mapped}
}

// TestAttrRowOracle: on every backing and around the 32- and 64-node
// boundaries, each column layout's row agrees with AttrValue, and a second
// call returns the same row.
func TestAttrRowOracle(t *testing.T) {
	for _, n := range []int{31, 32, 33, 65} {
		for name, g := range backings(t, n, int64(n)) {
			t.Run(fmt.Sprintf("%s_n%d", name, n), func(t *testing.T) {
				defer g.Close()
				checkRows(t, g)
				if a := g.AttrIDOf("mixed"); g.AttrRow(a) != g.AttrRow(a) {
					t.Error("a second call built another row")
				}
			})
		}
	}
}

// TestAttrRowConcurrentFirstUse: goroutines asking for every row of a fresh
// generation at once, each in its own order, all get one row per attribute,
// the one the oracle expects. Run it under -race.
func TestAttrRowConcurrentFirstUse(t *testing.T) {
	for name, g := range backings(t, 65, 3) {
		t.Run(name, func(t *testing.T) {
			defer g.Close()
			const workers = 8
			got := make([][]*AttrRow, workers)
			var wg sync.WaitGroup
			for w := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[w] = make([]*AttrRow, g.NumAttrs())
					for i := range got[w] {
						a := (i + w) % g.NumAttrs()
						got[w][a] = g.AttrRow(AttrID(a))
					}
				}()
			}
			wg.Wait()
			for w := range got {
				if !slices.Equal(got[w], got[0]) {
					t.Fatalf("worker %d got other rows than worker 0", w)
				}
			}
			checkRows(t, g)
		})
	}
}

// TestAttrRowAfterApply: a batch's generation starts without rows and builds
// its own, which reflect the batch (a new value, a moved one, a removed
// node, an added one), while the parent's rows stay as they were.
func TestAttrRowAfterApply(t *testing.T) {
	parent := rowGraph(65, 9)
	live := NewLive(parent)
	defer live.Close()
	before := make([]AttrRow, parent.NumAttrs())
	for a := range before {
		r := parent.AttrRow(AttrID(a))
		before[a] = AttrRow{IDs: slices.Clone(r.IDs), First: slices.Clone(r.First)}
	}
	if _, err := live.Apply([]Mutation{
		{Op: MutSetAttr, Node: 3, Attr: "num", Value: Int(12345)},
		{Op: MutSetAttr, Node: 0, Attr: "str", Value: Str("zz")},
		{Op: MutSetAttr, Node: 1, Attr: "mixed", Value: Null},
		{Op: MutRemoveNode, Node: 2},
		{Op: MutAddNode, Label: "P", Attrs: []AttrPair{{Name: "small", Value: Int(3)}, {Name: "str", Value: Str("a")}}},
	}); err != nil {
		t.Fatal(err)
	}
	child := live.Graph()
	checkRows(t, child)
	num, str := child.AttrIDOf("num"), child.AttrIDOf("str")
	if dom := child.ActiveDomainByID(num); !dom[child.AttrRow(num).IDs[3]].Equal(Int(12345)) {
		t.Error("the child's row misses the batch's new value")
	}
	if r := child.AttrRow(str); r.IDs[2] != NoValue || r.First[r.IDs[0]] != 0 {
		t.Errorf("child row: removed node reads %d, node 0's value first held by %d", r.IDs[2], r.First[r.IDs[0]])
	}
	for a := range before {
		r := parent.AttrRow(AttrID(a))
		if !slices.Equal(r.IDs, before[a].IDs) || !slices.Equal(r.First, before[a].First) {
			t.Fatalf("%s: the batch moved the parent's row", parent.AttrNameOf(AttrID(a)))
		}
		if child.AttrRow(AttrID(a)) == r {
			t.Fatalf("%s: the child shares the parent's row", parent.AttrNameOf(AttrID(a)))
		}
	}
	checkRows(t, parent)
}
