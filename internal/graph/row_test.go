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
		if r.IDs.Len() != g.NumNodes() || len(r.First) != len(dom) {
			t.Fatalf("%s: %d ids, %d firsts for %d nodes, %d domain entries", g.AttrNameOf(a), r.IDs.Len(), len(r.First), g.NumNodes(), len(dom))
		}
		first, held := make([]NodeID, len(dom)), 0
		for i := range first {
			first[i] = InvalidNode
		}
		for v := NodeID(0); int(v) < g.NumNodes(); v++ {
			x, id := g.AttrValue(v, a), r.IDs.At(int(v))
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

// TestAttrRowAfterApply: a batch's generation forks the rows its parent
// served; they reflect the batch (a new value, a moved one, a removed node,
// an added one), while the parent's rows stay as they were.
func TestAttrRowAfterApply(t *testing.T) {
	parent := rowGraph(65, 9)
	live := NewLive(parent)
	defer live.Close()
	before := make([]AttrRow, parent.NumAttrs())
	for a := range before {
		r := parent.AttrRow(AttrID(a))
		before[a] = AttrRow{IDs: TableOf(r.IDs.entries()), First: slices.Clone(r.First)}
	}
	res, err := live.Apply([]Mutation{
		{Op: MutSetAttr, Node: 3, Attr: "num", Value: Int(12345)},
		{Op: MutSetAttr, Node: 0, Attr: "str", Value: Str("zz")},
		{Op: MutSetAttr, Node: 1, Attr: "mixed", Value: Null},
		{Op: MutRemoveNode, Node: 2},
		{Op: MutAddNode, Label: "P", Attrs: []AttrPair{{Name: "small", Value: Int(3)}, {Name: "str", Value: Str("a")}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Touched.RowsForked != parent.NumAttrs() || res.Touched.RowsRemapped == 0 {
		t.Errorf("%d rows forked, %d remapped; want all %d forked, some remapped", res.Touched.RowsForked, res.Touched.RowsRemapped, parent.NumAttrs())
	}
	child := live.Graph()
	checkRows(t, child)
	num, str := child.AttrIDOf("num"), child.AttrIDOf("str")
	if dom := child.ActiveDomainByID(num); !dom[child.AttrRow(num).IDs.At(3)].Equal(Int(12345)) {
		t.Error("the child's row misses the batch's new value")
	}
	if r := child.AttrRow(str); r.IDs.At(2) != NoValue || r.First[r.IDs.At(0)] != 0 {
		t.Errorf("child row: removed node reads %d, node 0's value first held by %d", r.IDs.At(2), r.First[r.IDs.At(0)])
	}
	for a := range before {
		r := parent.AttrRow(AttrID(a))
		if !slices.Equal(r.IDs.entries(), before[a].IDs.entries()) || !slices.Equal(r.First, before[a].First) {
			t.Fatalf("%s: the batch moved the parent's row", parent.AttrNameOf(AttrID(a)))
		}
		if child.AttrRow(AttrID(a)) == r {
			t.Fatalf("%s: the child shares the parent's row", parent.AttrNameOf(AttrID(a)))
		}
	}
	checkRows(t, parent)
}

// forkBatch returns a valid batch for g holding the cases a row fork must
// get right: a number below every rank, a new string, an entry's lowest
// holder moved off it, a value's last holder cleared, a mixed-kind write, an
// edge, and on some k an added node, a removed one (the widest, so its
// degree maximum goes) and a new attribute. It reads values, never rows.
func forkBatch(g *Graph, rng *rand.Rand, k int) []Mutation {
	var live []NodeID
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		if g.Alive(v) {
			live = append(live, v)
		}
	}
	pick := func() NodeID { return live[rng.Intn(len(live))] }
	ops := []Mutation{
		{Op: MutSetAttr, Node: pick(), Attr: "num", Value: Int(int64(-100 - k))},
		{Op: MutSetAttr, Node: pick(), Attr: "str", Value: Str(fmt.Sprintf("s%02d", k))},
		{Op: MutSetAttr, Node: pick(), Attr: "mixed", Value: rowValues[rng.Intn(len(rowValues))]},
		{Op: MutAddEdge, From: pick(), To: pick(), Label: "e"},
	}
	lowest, holders := map[string]NodeID{}, map[string][]NodeID{}
	for _, v := range live {
		if x := g.Attr(v, "small"); !x.IsNull() {
			if _, ok := lowest[x.String()]; !ok {
				lowest[x.String()] = v
			}
		}
		if x := g.Attr(v, "str"); !x.IsNull() {
			holders[x.String()] = append(holders[x.String()], v)
		}
	}
	for _, v := range lowest {
		ops = append(ops, Mutation{Op: MutSetAttr, Node: v, Attr: "small", Value: Int(int64(3 * rng.Intn(8)))})
		break
	}
	for _, vs := range holders {
		if len(vs) == 1 {
			ops = append(ops, Mutation{Op: MutSetAttr, Node: vs[0], Attr: "str", Value: Null})
			break
		}
	}
	if k%3 == 0 {
		ops = append(ops, Mutation{Op: MutAddNode, Label: "P", Attrs: []AttrPair{
			{Name: "num", Value: Num(2.5)}, {Name: "small", Value: Int(9)}, {Name: "str", Value: Str("a")}, {Name: "flag", Value: Bool(true)}}})
	}
	if k%10 == 7 {
		ops = append(ops, Mutation{Op: MutSetAttr, Node: pick(), Attr: fmt.Sprintf("extra%d", k), Value: Int(int64(k))})
	}
	if k%4 == 1 && len(live) > 8 {
		widest := live[0]
		for _, v := range live {
			if g.OutDegree(v) > g.OutDegree(widest) {
				widest = v
			}
		}
		ops = append(ops, Mutation{Op: MutRemoveNode, Node: widest})
	}
	return ops
}

// TestAttrRowForkChain: 40 chained batches on every backing around the 32-
// and 64-node boundaries, a rotating subset of the rows read between them.
// CheckInvariants holds every served and forked row to a fresh build (and
// the footprint and degree maxima, derived by delta, to a full walk); the
// counters show the forks ran, remapping included.
func TestAttrRowForkChain(t *testing.T) {
	for _, n := range []int{31, 32, 33, 65} {
		for name, g := range backings(t, n, int64(n)) {
			t.Run(fmt.Sprintf("%s_n%d", name, n), func(t *testing.T) {
				live := NewLive(g)
				defer live.Close()
				rng := rand.New(rand.NewSource(int64(n)))
				forked, remapped := 0, 0
				for k := 0; k < 40; k++ {
					cur := live.Graph()
					for a := 0; a < cur.NumAttrs(); a++ {
						if (a+k)%3 != 0 {
							cur.AttrRow(AttrID(a))
						}
					}
					res, err := live.Apply(forkBatch(cur, rng, k))
					if err != nil {
						t.Fatalf("batch %d: %v", k, err)
					}
					if err := CheckInvariants(live.Graph()); err != nil {
						t.Fatalf("batch %d: %v", k, err)
					}
					forked, remapped = forked+res.Touched.RowsForked, remapped+res.Touched.RowsRemapped
				}
				checkRows(t, live.Graph())
				if forked < 40 || remapped < 40 {
					t.Errorf("%d rows forked, %d remapped over 40 batches", forked, remapped)
				}
			})
		}
	}
}

// TestApplyRacesAttrRowFirstUse: readers build the base's rows while Apply
// forks them; a row still being built counts as unbuilt, and every row
// either generation holds equals a fresh build. Run it under -race.
func TestApplyRacesAttrRowFirstUse(t *testing.T) {
	for name, g := range backings(t, 65, 5) {
		t.Run(name, func(t *testing.T) {
			live := NewLive(g)
			defer live.Close()
			rng := rand.New(rand.NewSource(5))
			for k := 0; k < 8; k++ {
				base := live.Acquire()
				var wg sync.WaitGroup
				for w := 0; w < 4; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for a := 0; a < base.NumAttrs(); a++ {
							base.AttrRow(AttrID((a + w) % base.NumAttrs()))
						}
					}()
				}
				_, err := live.Apply(forkBatch(base, rng, k))
				wg.Wait()
				if err != nil {
					t.Fatal(err)
				}
				for _, gen := range []*Graph{base, live.Graph()} {
					if err := CheckInvariants(gen); err != nil {
						t.Fatalf("batch %d: %v", k, err)
					}
				}
				base.Close()
			}
		})
	}
}

// TestAttrRowForkNotCarried: a row read on generation 0 alone is forked
// into generation 1, sharing every chunk the batch does not write, and,
// unread there, not into generation 2.
func TestAttrRowForkNotCarried(t *testing.T) {
	live := NewLive(rowGraph(65, 4))
	defer live.Close()
	a := live.Graph().AttrIDOf("small")
	r0 := live.Graph().AttrRow(a)
	for gen, want := range []int{1, 0} {
		res, err := live.Apply([]Mutation{{Op: MutSetAttr, Node: 1, Attr: "small", Value: Int(6)}})
		if err != nil {
			t.Fatal(err)
		}
		r := live.Graph().rows[a].fork
		if res.Touched.RowsForked != want || (r != nil) != (want == 1) {
			t.Fatalf("generation %d: %d rows forked", gen+1, res.Touched.RowsForked)
		}
		if r != nil && r.IDs.freshBytes(&r0.IDs) > 2*chunkLen*4 {
			t.Errorf("generation 1 copied %d bytes of the row", r.IDs.freshBytes(&r0.IDs))
		}
	}
}
