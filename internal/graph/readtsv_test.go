package graph

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestReadTSVRejectsMalformedIDs: an ID is a whole decimal int32. Each bad
// ID below is one that a prefix parse (fmt's %d) read as a valid ID — 5abc
// as 5, 0x1f as 0, 1_000 as 1, " 5" as 5 — or that wrapped into range when
// narrowed to a NodeID; they fail with the line they sit on. "+0" is still
// an ID, and "-1" still fails AddEdge's range check.
func TestReadTSVRejectsMalformedIDs(t *testing.T) {
	nodes := func(k int) string { // k well-formed node records
		var b strings.Builder
		for i := 0; i < k; i++ {
			b.WriteString("N\t" + strconv.Itoa(i) + "\tA\n")
		}
		return b.String()
	}
	for _, tc := range []struct{ in, want string }{
		{nodes(5) + "N\t5abc\tA\n", "line 6: bad node id \"5abc\""},
		{"N\t0x1f\tA\n", "line 1: bad node id \"0x1f\""},
		{nodes(1) + "N\t1_000\tA\n", "line 2: bad node id \"1_000\""},
		{nodes(5) + "N\t 5\tA\n", "line 6: bad node id \" 5\""},
		{nodes(6) + "E\t5abc\t0\tx\n", "line 7: bad edge source \"5abc\""},
		{nodes(6) + "E\t0\t0x1f\tx\n", "line 7: bad edge target \"0x1f\""},
		{nodes(6) + "E\t1_000\t0\tx\n", "line 7: bad edge source \"1_000\""},
		{nodes(6) + "E\t0\t 5\tx\n", "line 7: bad edge target \" 5\""},
		{nodes(6) + "E\t4294967296\t0\tx\n", "line 7: bad edge source \"4294967296\""},
		{nodes(6) + "E\t-1\t0\tx\n", "line 7: graph: AddEdge(-1, 0): node out of range [0,6)"},
		{"N\t-1\tA\n", "line 1: node id -1 out of order (expected 0)"},
	} {
		_, err := ReadTSV(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ReadTSV(%q) = %v, want an error containing %q", tc.in, err, tc.want)
		}
	}
	g, err := ReadTSV(strings.NewReader("N\t+0\tA\nN\t1\tB\nE\t+0\t+1\tx\n"))
	if err != nil {
		t.Fatalf("+0 IDs: %v", err)
	}
	if g.NumNodes() != 2 || !g.HasEdge(0, 1, g.LookupLabel("x")) {
		t.Fatalf("+0 IDs loaded %d nodes, edge 0->1 %v", g.NumNodes(), g.HasEdge(0, 1, g.LookupLabel("x")))
	}
}

// sortCases returns per-kind value pools for the permutation order tests:
// numeric cells with NaN, infinities and both zeros, strings with the empty
// string and shared prefixes, bools, and a mixed pool spanning every kind.
// A nil entry is a missing cell.
func sortCases() map[string][]*Value {
	val := func(v Value) *Value { return &v }
	return map[string][]*Value{
		"num": {nil, val(Num(math.NaN())), val(Num(math.Inf(-1))), val(Num(math.Inf(1))),
			val(Num(math.Copysign(0, -1))), val(Num(0)), val(Num(1)), val(Num(-2.5)), val(Num(1e300))},
		"str":   {nil, val(Str("")), val(Str("a")), val(Str("ab")), val(Str("abc")), val(Str("b")), val(Str("Z")), val(Str("é"))},
		"bool":  {nil, val(Bool(true)), val(Bool(false))},
		"mixed": {nil, val(Num(1)), val(Str("1")), val(Bool(true)), val(Num(math.NaN())), val(Str("")), val(Bool(false))},
	}
}

// TestSortedPermMatchesLess: the typed comparator sortedPerm sorts with
// gives less's order — boxed Value.Compare, ties by NodeID — on heap
// columns of every layout and on a decoded snapshot's string-ref columns,
// at sizes on both sides of a table chunk and a bitmap word, from a
// shuffled input.
func TestSortedPermMatchesLess(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for _, n := range []int{31, 32, 33, 65} {
		g := New()
		for i := 0; i < n; i++ {
			attrs := map[string]Value{}
			for name, pool := range sortCases() {
				if v := pool[rng.Intn(len(pool))]; v != nil {
					attrs[name] = *v
				}
			}
			g.AddNode("A", attrs)
		}
		g.Freeze()
		var snap bytes.Buffer
		if err := WriteSnapshot(&snap, g); err != nil {
			t.Fatal(err)
		}
		decoded, err := ReadSnapshot(bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for _, gg := range []*Graph{g, decoded} {
			nodes := slices.Clone(gg.NodesByLabel("A"))
			rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
			for _, name := range gg.AttrNames() {
				c := &gg.cols[gg.AttrIDOf(name)]
				if want := map[bool]string{true: "refs", false: name}[gg == decoded && name == "str"]; layout(c) != want {
					t.Fatalf("n=%d %s: column layout %s, want %s", n, name, layout(c), want)
				}
				want := slices.Clone(nodes)
				sort.SliceStable(want, func(i, j int) bool { return c.less(want[i], want[j]) })
				if got := sortedPerm(c, nodes); !slices.Equal(got, want) {
					t.Errorf("n=%d %s (%s): sortedPerm = %v, less orders %v", n, name, layout(c), got, want)
				}
			}
		}
	}
}

// layout names the array a column keeps its cells in.
func layout(c *column) string {
	switch {
	case c.vals != nil:
		return "mixed"
	case c.nums.n > 0:
		return "num"
	case c.strs.n > 0:
		return "str"
	case c.refs != nil:
		return "refs"
	case c.bools.n > 0:
		return "bool"
	}
	return "empty"
}

// TestSortEdgesOrder: sortEdges leaves a row in (label, target) order with
// every parallel edge kept.
func TestSortEdgesOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for _, n := range []int{0, 1, 2, 17, 100} {
		es := make([]Edge, n)
		for i := range es {
			es[i] = Edge{To: NodeID(rng.Intn(6)), Label: LabelID(rng.Intn(3))}
		}
		want := slices.Clone(es)
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].Label != want[j].Label {
				return want[i].Label < want[j].Label
			}
			return want[i].To < want[j].To
		})
		if sortEdges(es); !slices.Equal(es, want) {
			t.Fatalf("n=%d: sortEdges = %v, want %v", n, es, want)
		}
	}
}
