package groups

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fairsqg/internal/graph"
)

func genderGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New()
	genders := []string{"male", "male", "female", "male", "female", "male"}
	for _, gd := range genders {
		g.AddNode("Person", map[string]graph.Value{"gender": graph.Str(gd)})
	}
	g.AddNode("Person", nil) // no gender: joins no group
	g.AddNode("Org", map[string]graph.Value{"gender": graph.Str("male")})
	g.Freeze()
	return g
}

func TestByAttribute(t *testing.T) {
	g := genderGraph(t)
	set := ByAttribute(g, "Person", "gender")
	if len(set) != 2 {
		t.Fatalf("got %d groups", len(set))
	}
	// Sorted by value: female first.
	if set[0].Name != "gender=female" || set[0].Size() != 2 {
		t.Errorf("group 0 = %q size %d", set[0].Name, set[0].Size())
	}
	if set[1].Name != "gender=male" || set[1].Size() != 4 {
		t.Errorf("group 1 = %q size %d", set[1].Name, set[1].Size())
	}
	// The Org node must not leak into Person groups.
	if set[1].Has(7) {
		t.Error("wrong-label node in group")
	}
}

func TestByValues(t *testing.T) {
	g := genderGraph(t)
	set := ByValues(g, "Person", "gender", "male", "nonexistent")
	if len(set) != 1 || set[0].Name != "gender=male" {
		t.Errorf("ByValues = %v", set)
	}
}

// TestByValuesFiltersByAttribute: ByValues builds what filtering
// ByAttribute's groups by the listed values gives — the same names in the
// listed order, the same members, the same Counter counts — with values
// that have no members skipped and a value listed twice kept twice.
func TestByValuesFiltersByAttribute(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.New()
	const numNodes = 400
	for i := 0; i < numNodes; i++ {
		attrs := map[string]graph.Value{}
		if k := rng.Intn(6); k < 5 {
			attrs["team"] = graph.Str(string(rune('a' + k)))
		}
		label := "Person"
		if i%5 == 0 {
			label = "Org"
		}
		g.AddNode(label, attrs)
	}
	g.Freeze()
	all := ByAttribute(g, "Person", "team")
	for _, values := range [][]string{
		{"d", "b"}, {"e", "a", "c", "b", "d"}, {"a", "zz", "c"}, {"zz"}, nil, {"b", "b", "a"}, {"c", "a", "c"},
	} {
		var want Set
		for _, v := range values {
			for i := range all {
				if all[i].Name == "team="+v {
					want = append(want, all[i])
				}
			}
		}
		got := ByValues(g, "Person", "team", values...)
		if len(got) != len(want) {
			t.Fatalf("%q: %d groups, want %d", values, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Want != 0 || got[i].Size() != want[i].Size() || !sameMembers(g, &got[i], &want[i]) {
				t.Errorf("%q: group %d is %q with %d members, want %q with %d", values, i, got[i].Name, got[i].Size(), want[i].Name, want[i].Size())
			}
		}
		cg, cw := NewCounter(numNodes, got), NewCounter(numNodes, want)
		for trial := 0; trial < 20; trial++ {
			answer := make([]graph.NodeID, rng.Intn(60))
			for k := range answer {
				answer[k] = graph.NodeID(rng.Intn(numNodes))
			}
			if a, b := cg.Counts(answer), cw.Counts(answer); !slices.Equal(a, b) {
				t.Fatalf("%q trial %d: counts %v, filtered ByAttribute %v", values, trial, a, b)
			}
		}
	}
}

// sameMembers reports whether two groups hold the same nodes of g.
func sameMembers(g *graph.Graph, a, b *Group) bool {
	for v := graph.NodeID(0); int(v) < g.NumNodes()+3; v++ {
		if a.Has(v) != b.Has(v) {
			return false
		}
	}
	return true
}

func TestEqualOpportunityAndSplit(t *testing.T) {
	g := genderGraph(t)
	set := EqualOpportunity(ByAttribute(g, "Person", "gender"), 2)
	if set[0].Want != 2 || set[1].Want != 2 {
		t.Errorf("equal opportunity wants = %d, %d", set[0].Want, set[1].Want)
	}
	if set.TotalWant() != 4 {
		t.Errorf("TotalWant = %d", set.TotalWant())
	}
	set = SplitEvenly(set, 5)
	if set[0].Want+set[1].Want != 5 || set[0].Want != 3 {
		t.Errorf("SplitEvenly = %d, %d", set[0].Want, set[1].Want)
	}
	if s := SplitEvenly(Set{}, 5); len(s) != 0 {
		t.Error("SplitEvenly on empty set")
	}
}

func TestDisparateImpact(t *testing.T) {
	g := genderGraph(t)
	set, err := DisparateImpact(ByAttribute(g, "Person", "gender"), "gender=male", 2, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	var male, female int
	for _, gr := range set {
		if gr.Name == "gender=male" {
			male = gr.Want
		} else {
			female = gr.Want
		}
	}
	if male != 2 || female != 2 { // ceil(0.8*2) = 2
		t.Errorf("80%% rule wants = male %d, female %d", male, female)
	}
	if _, err := DisparateImpact(set, "gender=other", 2, 0.8); err == nil {
		t.Error("unknown majority should fail")
	}
}

func TestValidate(t *testing.T) {
	good := Set{
		{Name: "a", Members: map[graph.NodeID]bool{0: true}, Want: 1},
		{Name: "b", Members: map[graph.NodeID]bool{1: true}, Want: 0},
		{Name: "c", Members: map[graph.NodeID]bool{2: true, 3: true, 4: true}, Want: 3},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
	one := map[graph.NodeID]bool{0: true}
	bad := []struct {
		set  Set
		want string
	}{
		{Set{{Name: "empty", Members: map[graph.NodeID]bool{}}}, `groups: group "empty" is empty`},
		{Set{{Name: "nil"}}, `groups: group "nil" is empty`},
		{Set{{Name: "neg", Members: one, Want: -1}}, `groups: group "neg": constraint -1 outside [0,1]`},
		{Set{{Name: "big", Members: one, Want: 2}}, `groups: group "big": constraint 2 outside [0,1]`},
		{Set{{Name: "x", Members: one}, {Name: "y", Members: one}},
			`groups: node 0 belongs to both "x" and "y"; groups must be disjoint`},
		// Overlap between non-adjacent groups of different sizes, the small
		// one first and the small one last: the earlier group is named first.
		{Set{{Name: "small", Members: map[graph.NodeID]bool{7: true}}, good[1], {Name: "large", Members: map[graph.NodeID]bool{5: true, 6: true, 7: true}}},
			`groups: node 7 belongs to both "small" and "large"; groups must be disjoint`},
		{Set{{Name: "large", Members: map[graph.NodeID]bool{5: true, 6: true, 7: true}}, good[1], {Name: "small", Members: map[graph.NodeID]bool{7: true}}},
			`groups: node 7 belongs to both "large" and "small"; groups must be disjoint`},
		// A later group's own defect is reported before its overlaps are looked at.
		{Set{{Name: "x", Members: one}, {Name: "y", Members: one, Want: 5}}, `groups: group "y": constraint 5 outside [0,1]`},
	}
	for _, c := range bad {
		if err := c.set.Validate(); err == nil || err.Error() != c.want {
			t.Errorf("Validate = %v, want %s", err, c.want)
		}
	}
}

// BenchmarkSetValidate: three disjoint groups over 30k nodes, the shape a
// gender/major partition of a benchmark graph has.
func BenchmarkSetValidate(b *testing.B) {
	set := make(Set, 3)
	for i := range set {
		set[i] = Group{Name: fmt.Sprint("g", i), Members: map[graph.NodeID]bool{}, Want: 10}
	}
	for v := 0; v < 30000; v++ {
		set[v%7%3].Members[graph.NodeID(v)] = true
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := set.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCount(t *testing.T) {
	set := Set{
		{Name: "a", Members: map[graph.NodeID]bool{0: true, 1: true}},
		{Name: "b", Members: map[graph.NodeID]bool{2: true}},
	}
	counts := set.Count([]graph.NodeID{0, 1, 2, 3})
	if counts[0] != 2 || counts[1] != 1 {
		t.Errorf("counts = %v", counts)
	}
	if c := set.Count(nil); c[0] != 0 || c[1] != 0 {
		t.Errorf("empty counts = %v", c)
	}
}

// TestPartitionMatchesMembers: groups cut from the graph's rows answer Size,
// Has, Validate, Set.Count and a Counter as groups holding the same members
// in maps do — keyed by Value.String, so the number 5 and the string "5"
// (and true and "true") share a group — with nodes lacking the attribute,
// for ByAttribute and for ByValues, on an attribute nodes of another label
// carry too (v) and on one only the groups' label carries (w).
func TestPartitionMatchesMembers(t *testing.T) {
	for _, attr := range []string{"v", "w"} {
		t.Run(attr, func(t *testing.T) { testPartitionMatchesMembers(t, attr) })
	}
}

func testPartitionMatchesMembers(t *testing.T, attr string) {
	rng := rand.New(rand.NewSource(11))
	g := graph.New()
	vals := []graph.Value{graph.Int(5), graph.Str("5"), graph.Str("x"), graph.Bool(true), graph.Str("true"), graph.Num(2.5), graph.Null}
	const numNodes = 200
	for i := 0; i < numNodes; i++ {
		attrs := map[string]graph.Value{}
		if x := vals[rng.Intn(len(vals))]; !x.IsNull() {
			attrs["v"] = x
		}
		label := "P"
		if i%5 == 0 {
			label = "Q"
		} else if x := vals[rng.Intn(len(vals))]; !x.IsNull() {
			attrs["w"] = x
		}
		g.AddNode(label, attrs)
	}
	g.Freeze()
	byKey := map[string]map[graph.NodeID]bool{}
	for _, v := range g.NodesByLabel("P") {
		if x := g.Attr(v, attr); !x.IsNull() {
			if byKey[x.String()] == nil {
				byKey[x.String()] = map[graph.NodeID]bool{}
			}
			byKey[x.String()][v] = true
		}
	}
	if len(byKey) != 4 {
		t.Fatalf("fixture has %d keys, want 4 (5, x, true, 2.5)", len(byKey))
	}
	for _, values := range [][]string{nil, {"5", "x"}, {"true", "zz", "5"}} {
		got, keys := ByValues(g, "P", attr, values...), values
		if values == nil {
			got, keys = ByAttribute(g, "P", attr), []string{"2.5", "5", "true", "x"}
		}
		var want Set
		for _, k := range keys {
			if byKey[k] != nil {
				want = append(want, Group{Name: attr + "=" + k, Members: byKey[k]})
			}
		}
		EqualOpportunity(got, 1)
		EqualOpportunity(want, 1)
		if len(got) != len(want) {
			t.Fatalf("%q: %d groups, want %d", values, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Members != nil || got[i].Size() != want[i].Size() || !sameMembers(g, &got[i], &want[i]) {
				t.Fatalf("%q: group %d is %q with %d members, want %q with %d", values, i, got[i].Name, got[i].Size(), want[i].Name, want[i].Size())
			}
		}
		if err, werr := got.Validate(), want.Validate(); err != nil || werr != nil {
			t.Fatalf("%q: Validate %v, oracle %v", values, err, werr)
		}
		if (got[0].from.labels == nil) != (attr == "w") {
			t.Fatalf("%q: label table kept %v for attribute %s", values, got[0].from.labels != nil, attr)
		}
		cg, cw := NewCounter(numNodes, got), NewCounter(numNodes, want)
		for trial := 0; trial < 30; trial++ {
			answer := make([]graph.NodeID, rng.Intn(80))
			for k := range answer {
				answer[k] = graph.NodeID(rng.Intn(numNodes + 3))
			}
			a, b, c := cg.Counts(answer), cw.Counts(answer), got.Count(answer)
			if !slices.Equal(a, b) || !slices.Equal(c, want.Count(answer)) {
				t.Fatalf("%q trial %d: counter %v, Count %v, oracle %v", values, trial, a, c, b)
			}
		}
	}
}
