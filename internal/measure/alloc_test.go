package measure

import (
	"runtime"
	"testing"

	"fairsqg/internal/gen"
	"fairsqg/internal/groups"
)

// TestWarmViewsAllocatePerDomain: once a generation's rows exist, the
// distance features and a group partition allocate per active-domain entry
// and per group, nothing per node. On LKI-15k the categorical attributes
// stay under a fixed 16 KiB, a quarter of one int32 per node; with the
// free-text name (a domain nearly as large as the graph) the bound is 24
// bytes an entry: kinds, ids and string info, rounded up by the allocator.
func TestWarmViewsAllocatePerDomain(t *testing.T) {
	g, err := gen.Build(gen.LKI, gen.Options{Nodes: 15000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, attrs := range [][]string{{"major", "yearsOfExp", "title"}, {"major", "yearsOfExp", "title", "name"}} {
		build := func() {
			NewDistanceFeatures(g, attrs)
			groups.ByAttribute(g, "Person", "gender")
		}
		build() // the generation's rows
		domain := 0
		for _, a := range append(attrs, "gender") {
			domain += len(g.ActiveDomain(a)) + 1
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		build()
		runtime.ReadMemStats(&after)
		bound := uint64(16 << 10)
		if domain > 1000 {
			bound += uint64(24 * domain)
		}
		if bytes := after.TotalAlloc - before.TotalAlloc; bytes > bound {
			t.Errorf("%v: warm features + partition allocated %d bytes for %d domain entries over %d nodes, bound %d",
				attrs, bytes, domain, g.NumNodes(), bound)
		}
	}
}
