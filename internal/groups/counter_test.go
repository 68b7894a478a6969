package groups

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"fairsqg/internal/graph"
)

// TestCounterMatchesSetCount: the dense-array Counter must agree with the
// map-probing Set.Count on random answers, including nodes outside every
// group and repeated IDs.
func TestCounterMatchesSetCount(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const numNodes = 200
	set := Set{
		{Name: "a", Members: map[graph.NodeID]bool{}, Want: 1},
		{Name: "b", Members: map[graph.NodeID]bool{}, Want: 1},
		{Name: "c", Members: map[graph.NodeID]bool{}, Want: 1},
	}
	for v := graph.NodeID(0); v < numNodes; v++ {
		switch rng.Intn(4) {
		case 0:
			set[0].Members[v] = true
		case 1:
			set[1].Members[v] = true
		case 2:
			set[2].Members[v] = true
		default: // no group
		}
	}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	c := NewCounter(numNodes, set)
	for trial := 0; trial < 50; trial++ {
		var answer []graph.NodeID
		for k := rng.Intn(60); k > 0; k-- {
			answer = append(answer, graph.NodeID(rng.Intn(numNodes)))
		}
		want := set.Count(answer)
		got := c.Counts(answer)
		for i := range set {
			if got[i] != want[i] {
				t.Fatalf("trial %d group %d: Counter %d, Set.Count %d", trial, i, got[i], want[i])
			}
		}
	}
}

func TestCounterOutOfRangeIDs(t *testing.T) {
	set := Set{{Name: "a", Members: map[graph.NodeID]bool{0: true, 500: true}, Want: 1}}
	c := NewCounter(10, set) // member 500 is outside the graph
	got := c.Counts([]graph.NodeID{0, 500, 9})
	if got[0] != 1 {
		t.Errorf("counts = %v, want [1]: in-range member counted once, ID 500 ignored", got)
	}
}

func TestCounterBufferReuse(t *testing.T) {
	set := Set{{Name: "a", Members: map[graph.NodeID]bool{1: true, 2: true}, Want: 1}}
	c := NewCounter(4, set)
	first := c.Counts([]graph.NodeID{1, 2})
	if first[0] != 2 {
		t.Fatalf("counts = %v", first)
	}
	second := c.Counts(nil)
	if &first[0] != &second[0] {
		t.Error("Counts allocated a new buffer; the contract is reuse")
	}
	if second[0] != 0 {
		t.Error("buffer not zeroed between calls")
	}
}

// TestCounterOverPartition: a Counter over groups cut by one ByAttribute call
// reads the partition — nothing graph-sized is built — and
// agrees with Set.Count for the whole partition and for a reordered subset of
// it; Validate takes such groups as disjoint, but not one of them listed
// twice, nor the same members cut by two ByAttribute calls.
func TestCounterOverPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := graph.New()
	const numNodes = 300
	for i := 0; i < numNodes; i++ {
		attrs := map[string]graph.Value{}
		if k := rng.Intn(5); k < 4 { // a fifth of the people carry no value
			attrs["team"] = graph.Str(string(rune('a' + k)))
		}
		label := "Person"
		if i%7 == 0 {
			label = "Org"
		}
		g.AddNode(label, attrs)
	}
	g.Freeze()
	all := EqualOpportunity(ByAttribute(g, "Person", "team"), 1)
	some := EqualOpportunity(ByValues(g, "Person", "team", "d", "b"), 1)
	for name, set := range map[string]Set{"all": all, "some": some} {
		if err := set.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c := NewCounter(numNodes, set)
		flat := func(t graph.Table[int32]) uintptr { return reflect.ValueOf(t).FieldByName("flat").Pointer() }
		if c.part != set[0].from || flat(c.id) != flat(set[0].from.row) {
			t.Fatalf("%s: the counter built an index of its own", name)
		}
		for trial := 0; trial < 50; trial++ {
			var answer []graph.NodeID
			for k := rng.Intn(80); k > 0; k-- {
				answer = append(answer, graph.NodeID(rng.Intn(numNodes+5))) // some past the graph
			}
			if got, want := c.Clone().Counts(answer), set.Count(answer); !slices.Equal(got, want) {
				t.Fatalf("%s trial %d: Counter %v, Set.Count %v", name, trial, got, want)
			}
		}
	}
	if err := ByValues(g, "Person", "team", "a", "a").Validate(); err == nil {
		t.Error("one cell listed twice validated as two disjoint groups")
	}
	other := ByAttribute(g, "Person", "team") // another call: another partition
	mixed := Set{all[0], other[0]}
	if err := mixed.Validate(); err == nil {
		t.Error("the same members under two partitions validated as disjoint")
	}
	if c := NewCounter(numNodes, Set{all[0], other[1]}); c.part != nil {
		t.Error("groups of two partitions share one node index")
	}
}

// TestPartitionConcurrentFirstUse: goroutines cutting groups from a fresh
// generation at once — so its row is built under their concurrent first use
// — and counting one answer each get the same groups and counts. Run it
// under -race.
func TestPartitionConcurrentFirstUse(t *testing.T) {
	g := genderGraph(t)
	answer := []graph.NodeID{0, 1, 2, 3, 4, 5, 6, 7}
	want := ByAttribute(genderGraph(t), "Person", "gender").Count(answer)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			set := ByAttribute(g, "Person", "gender")
			if got := NewCounter(g.NumNodes(), set).Counts(answer); !slices.Equal(got, want) {
				t.Errorf("worker %d: counts %v, want %v", w, got, want)
			}
		}()
	}
	wg.Wait()
}
