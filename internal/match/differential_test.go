package match

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"fairsqg/internal/graph"
	"fairsqg/internal/query"
)

// differentialSeed fixes the randomized fixture generation; it is logged on
// every failure so a differential divergence reproduces exactly.
const differentialSeed = 7321

// engineMatrix enumerates the engine configurations the differential suite
// checks against the sequential reference: workers 1, 4 and GOMAXPROCS,
// each with the candidate cache on and off, each with the sorted attribute
// indexes on and off, each under dynamic and static backtracking order.
func engineMatrix(g *graph.Graph, mode Mode) map[string]*Engine {
	workerSet := []int{1, 4, runtime.GOMAXPROCS(0)}
	m := make(map[string]*Engine)
	for _, w := range workerSet {
		for _, cacheSize := range []int{0, -1} {
			for _, noIndex := range []bool{false, true} {
				for _, order := range []Order{OrderDynamic, OrderStatic} {
					name := "workers=" + strconv.Itoa(w) + "/cache=on"
					if cacheSize < 0 {
						name = "workers=" + strconv.Itoa(w) + "/cache=off"
					}
					if noIndex {
						name += "/index=off"
					}
					name += "/order=" + order.String()
					if _, dup := m[name]; dup {
						continue // GOMAXPROCS may coincide with 1 or 4
					}
					m[name] = NewEngine(g, EngineOptions{
						Workers: w, CandCacheSize: cacheSize,
						Settings: Settings{Mode: mode, DisableAttrIndex: noIndex, Order: order},
					})
				}
			}
		}
	}
	return m
}

// checkDifferential asserts every engine configuration reproduces the
// sequential matcher's result for one instance, that the static-order
// sequential matcher agrees with the dynamic one, and that both orders
// drive the candidate-selection access paths identically (selection happens
// before ordering, so the Index/ScanSelections counters must not depend on
// the order knob).
func checkDifferential(t *testing.T, g *graph.Graph, q *query.Instance, mode Mode, engines map[string]*Engine) {
	t.Helper()
	m := New(g)
	m.Mode = mode
	want := m.EvalOutput(q)
	ms := New(g)
	ms.Mode = mode
	ms.Order = OrderStatic
	if got := ms.EvalOutput(q); !reflect.DeepEqual(got, want) {
		t.Errorf("seed %d: %s: static order diverged:\nstatic  %v\ndynamic %v",
			differentialSeed, q, got, want)
	}
	if ms.Stats.IndexSelections != m.Stats.IndexSelections ||
		ms.Stats.ScanSelections != m.Stats.ScanSelections {
		t.Errorf("seed %d: %s: selection counters depend on order: static index=%d scan=%d, dynamic index=%d scan=%d",
			differentialSeed, q, ms.Stats.IndexSelections, ms.Stats.ScanSelections,
			m.Stats.IndexSelections, m.Stats.ScanSelections)
	}
	for name, e := range engines {
		got, err := e.ParEvalOutput(context.Background(), q)
		if err != nil {
			t.Fatalf("seed %d: %s: %s: %v", differentialSeed, name, q, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: %s: %s:\nengine     %v\nsequential %v",
				differentialSeed, name, q, got, want)
		}
	}
}

// TestDifferentialTalentFixture runs every instantiation of the canonical
// talent fixture through the full engine matrix in both matching modes.
func TestDifferentialTalentFixture(t *testing.T) {
	g := talentGraph(t)
	tpl := talentTpl(t)
	for _, mode := range []Mode{Isomorphism, Homomorphism} {
		engines := engineMatrix(g, mode)
		for _, in := range allInstantiations(tpl) {
			checkDifferential(t, g, query.MustInstance(tpl, in), mode, engines)
		}
	}
}

// TestDifferentialRandomGraph covers the mid-size random fixture: every
// instantiation of the 4-variable random template, one engine matrix reused
// across instances so the shared cache is exercised with mixed keys.
func TestDifferentialRandomGraph(t *testing.T) {
	g := randomGraph(t, 300, 900, differentialSeed)
	tpl := randomTemplate(t, g)
	engines := engineMatrix(g, Isomorphism)
	for _, in := range allInstantiations(tpl) {
		checkDifferential(t, g, query.MustInstance(tpl, in), Isomorphism, engines)
	}
}

// TestDifferentialTinyRandom sweeps many tiny random graph/template pairs
// (the brute-force oracle fixtures) through the matrix; fresh engines per
// graph, shared across that graph's instances.
func TestDifferentialTinyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(differentialSeed))
	for trial := 0; trial < 40; trial++ {
		g := tinyRandomGraph(rng)
		tpl := tinyRandomTemplate(rng)
		if err := tpl.BindDomains(g, query.DomainOptions{}); err != nil {
			continue
		}
		for _, mode := range []Mode{Isomorphism, Homomorphism} {
			engines := engineMatrix(g, mode)
			for _, in := range allInstantiations(tpl) {
				checkDifferential(t, g, query.MustInstance(tpl, in), mode, engines)
			}
		}
	}
}

// TestDifferentialIncremental checks the engine's within-restricted path
// (incVerify) against the sequential one along random refinement chains.
func TestDifferentialIncremental(t *testing.T) {
	g := randomGraph(t, 300, 900, differentialSeed+1)
	tpl := randomTemplate(t, g)
	m := New(g)
	engines := engineMatrix(g, Isomorphism)
	rng := rand.New(rand.NewSource(differentialSeed + 2))
	for trial := 0; trial < 20; trial++ {
		in := query.Root(tpl)
		parent := m.EvalOutput(query.MustInstance(tpl, in))
		for step := 0; step < 5; step++ {
			kids := query.RefineSteps(tpl, in)
			if len(kids) == 0 {
				break
			}
			in = kids[rng.Intn(len(kids))]
			q := query.MustInstance(tpl, in)
			want := m.EvalOutputWithin(q, parent)
			for name, e := range engines {
				got, err := e.ParEvalOutputWithin(context.Background(), q, parent)
				if err != nil {
					t.Fatalf("seed %d: %s: %v", differentialSeed, name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d trial %d step %d: %s: %s: engine %v, sequential %v",
						differentialSeed, trial, step, name, q, got, want)
				}
			}
			parent = want
		}
	}
}
