package core

import (
	"encoding/json"
	"reflect"
	"strconv"
	"testing"

	"fairsqg/internal/graph"
	"fairsqg/internal/match"
	"fairsqg/internal/query"
)

// nonDefaultSettings is one Settings value per field, each away from zero.
var nonDefaultSettings = map[string]match.Settings{
	"homomorphism": {Mode: match.Homomorphism},
	"budget":       {MaxBacktrackNodes: 50},
}

// TestSettingsReachEveryMatcher: there is always an engine, and whatever
// Config.Settings says is exactly what it runs under — after NewRunner and
// again after Retarget onto a mutated generation, which keeps the matcher
// and candidate-cache counters monotone. The injected
// mode pins the other direction: with Config.Engine set and Config.Settings
// zero, the runner takes the engine's value and keeps it when Retarget
// abandons that engine.
func TestSettingsReachEveryMatcher(t *testing.T) {
	g := fixtureGraph(t, 30)
	g2, _, err := graph.ApplyBatch(g, []graph.Mutation{
		{Op: graph.MutSetAttr, Node: 1, Attr: "yearsOfExp", Value: graph.Int(3)},
		{Op: graph.MutRemoveNode, Node: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range nonDefaultSettings {
		for _, mode := range []string{"owned", "injected"} {
			t.Run(name+"/"+mode, func(t *testing.T) {
				cfg := fixtureConfig(t, g, 0.3, 3)
				if mode == "owned" {
					cfg.Settings = want
				} else {
					cfg.Engine = match.NewEngine(g, match.EngineOptions{Settings: want})
				}
				r := newRunnerT(t, cfg)
				check := func(when string) {
					t.Helper()
					if r.engine == nil {
						t.Fatalf("%s: no engine", when)
					}
					if got := r.engine.Settings(); got != want {
						t.Errorf("%s: engine runs under %+v, want %+v", when, got, want)
					}
				}
				check("after NewRunner")
				if (r.engine == cfg.Engine) != (mode == "injected") {
					t.Errorf("runner on the injected engine = %v", r.engine == cfg.Engine)
				}
				if _, err := r.RfQGen(); err != nil {
					t.Fatal(err)
				}
				st := r.Stats()
				before, cache := st.Matcher, st.Cache
				if before.Evals == 0 {
					t.Fatal("RfQGen evaluated nothing")
				}

				r.Retarget(g2)
				check("after Retarget")
				if r.cfg.G != g2 || r.engine.Graph() != g2 {
					t.Error("Retarget left the engine on the old generation")
				}
				if st := r.Stats(); st.Matcher != before || st.Cache.Hits != cache.Hits || st.Cache.Misses != cache.Misses {
					t.Errorf("Retarget changed the counters: %+v %+v -> %+v %+v", before, cache, st.Matcher, st.Cache)
				}
				r.verify(query.MustInstance(cfg.Template, query.Root(cfg.Template)), nil)
				if st := r.Stats(); st.Matcher.Evals <= before.Evals || st.Matcher.CandidatesChecked < before.CandidatesChecked || st.Cache.Misses <= cache.Misses {
					t.Errorf("counters not monotone across Retarget: %+v %+v -> %+v %+v", before, cache, st.Matcher, st.Cache)
				}
				// A later run rebuilds the run-owned engine; that nil-dereferenced
				// once Retarget had abandoned an injected one.
				if _, err := r.RfQGen(); err != nil {
					t.Fatal(err)
				}
				check("after a run on the new generation")
			})
		}
	}
}

// TestConfigValidateEngineSettings: with an injected engine every
// evaluation runs under the engine's settings, so a Config that asks for
// different ones is rejected instead of silently ignored.
func TestConfigValidateEngineSettings(t *testing.T) {
	g := fixtureGraph(t, 1)
	homo := match.Settings{Mode: match.Homomorphism}
	for _, c := range []struct {
		engine, config match.Settings
		ok             bool
	}{
		{match.Settings{}, match.Settings{}, true},
		{homo, match.Settings{}, true}, // zero Config.Settings: take the engine's
		{homo, homo, true},
		{match.Settings{}, homo, false},
		{homo, match.Settings{MaxBacktrackNodes: 10}, false},
		{match.Settings{MaxBacktrackNodes: 10}, match.Settings{MaxBacktrackNodes: 20}, false},
	} {
		cfg := fixtureConfig(t, g, 0.3, 3)
		cfg.Engine = match.NewEngine(g, match.EngineOptions{Settings: c.engine})
		cfg.Settings = c.config
		if err := cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("engine %+v, config %+v: Validate = %v, want ok=%v", c.engine, c.config, err, c.ok)
		}
	}
	// Without an engine any settings are the run's own.
	cfg := fixtureConfig(t, g, 0.3, 3)
	cfg.Settings = homo
	if err := cfg.Validate(); err != nil {
		t.Errorf("settings without an engine rejected: %v", err)
	}
}

// statsLeaves flattens every numeric leaf of a Stats value, by field path.
func statsLeaves(s Stats) map[string]int64 {
	leaves := map[string]int64{}
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(path+"["+strconv.Itoa(i)+"]", v.Index(i))
			}
		default:
			leaves[path] = v.Int()
		}
	}
	walk("Stats", reflect.ValueOf(s))
	return leaves
}

// TestStatsAddCoversEveryField: Add sums every leaf of Stats, so a field
// added later without an Add line fails here; and every leaf crosses the
// coordinator↔worker wire, where Stats travels as JSON, unchanged.
func TestStatsAddCoversEveryField(t *testing.T) {
	var one Stats
	var set func(v reflect.Value)
	set = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				set(v.Field(i))
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				set(v.Index(i))
			}
		default:
			v.SetInt(1)
		}
	}
	set(reflect.ValueOf(&one).Elem())
	var wire Stats
	if data, err := json.Marshal(one); err != nil || json.Unmarshal(data, &wire) != nil || wire != one {
		t.Errorf("Stats does not round-trip through JSON (err %v): %+v, want %+v", err, wire, one)
	}
	sum := one
	sum.Add(one)
	for path, n := range statsLeaves(sum) {
		if n != 2 {
			t.Errorf("%s = %d after Add, want 2: Stats.Add does not sum it", path, n)
		}
	}
}

// TestParQGenKeepsMatcherCounters: a par run reports every counter of Stats —
// the access-path split, signature pruning and the propagation counters
// included — wherever the same request under rf does, on the default seeded
// path and with DisableIncremental, where every plan selects its candidates
// from the labels.
func TestParQGenKeepsMatcherCounters(t *testing.T) {
	g := fixtureGraph(t, 30)
	for _, inherit := range []bool{true, false} {
		cfg := fixtureConfig(t, g, 0.3, 3)
		cfg.DisableIncremental = !inherit
		rf, err := newRunnerT(t, cfg).RfQGen()
		if err != nil {
			t.Fatal(err)
		}
		m := rf.Stats.Matcher
		if m.ArcsRevised == 0 || inherit != (m.ArcsInherited > 0) {
			t.Fatalf("inherit=%v: fixture no longer exercises the propagation counters under rf: %+v", inherit, m)
		}
		// A seeded plan selects no candidates, so only the unseeded column
		// is sure to take both access paths and prune by signature.
		if !inherit && (m.IndexSelections == 0 || m.ScanSelections == 0 || m.SigPruned == 0) {
			t.Fatalf("fixture no longer exercises all three counters under rf: %+v", m)
		}
		want := statsLeaves(rf.Stats)
		for _, workers := range []int{1, 2, 4} {
			res, err := newRunnerT(t, cfg).ParQGen(workers)
			if err != nil {
				t.Fatal(err)
			}
			for path, n := range statsLeaves(res.Stats) {
				if n == 0 && want[path] != 0 {
					t.Errorf("inherit=%v/workers=%d: par lost %s (rf: %d)", inherit, workers, path, want[path])
				}
			}
		}
	}
}
