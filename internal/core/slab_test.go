package core

import (
	"reflect"
	"sort"
	"testing"

	"fairsqg/internal/graph"
	"fairsqg/internal/groups"
	"fairsqg/internal/pareto"
	"fairsqg/internal/query"
)

// TestPlanSlabs: the plan pins the variable with the most options and
// enumerates every level exactly once (wildcard + full ladder).
func TestPlanSlabs(t *testing.T) {
	g := fixtureGraph(t, 40)
	cfg := fixtureConfig(t, g, 0.3, 3)
	plan := PlanSlabs(cfg.Template)
	if plan.SplitVar != pickSplitVariable(cfg.Template) {
		t.Fatalf("plan split %d != pickSplitVariable %d", plan.SplitVar, pickSplitVariable(cfg.Template))
	}
	v := cfg.Template.Vars[plan.SplitVar]
	if v.Kind != query.RangeVar {
		t.Fatalf("fixture plan should split a range variable")
	}
	want := append([]int{query.Wildcard}, 0, 1, 2, 3, 4)
	if !reflect.DeepEqual(plan.Levels, want[:len(v.Ladder)+1]) {
		t.Fatalf("levels %v, want wildcard + ladder indices", plan.Levels)
	}
	if plan.NumSlabs() != len(v.Ladder)+1 {
		t.Fatalf("NumSlabs %d, want %d", plan.NumSlabs(), len(v.Ladder)+1)
	}
}

// runAllSlabs executes every slab of the plan in a fresh Runner each and
// merges the results in plan order — the single-process analogue of what
// the cluster coordinator does across workers.
func runAllSlabs(t *testing.T, cfg *Config) (*pareto.Archive[SlabEntry], Stats) {
	t.Helper()
	plan := PlanSlabs(cfg.Template)
	merged := pareto.NewArchive[SlabEntry](cfg.Eps)
	var stats Stats
	for _, level := range plan.Levels {
		res, err := newRunnerT(t, cfg).RunSlab(plan.SplitVar, level)
		if err != nil {
			t.Fatalf("RunSlab(%d, %d): %v", plan.SplitVar, level, err)
		}
		for _, e := range res.Entries {
			merged.Update(e.Point(), e)
		}
		stats.Add(res.Stats)
	}
	return merged, stats
}

// TestRunSlabUnionEquivalence: merging every slab's local archive is
// equivalent to the single-process ParQGen archive — identical box sets
// (the order-independent invariant) and mutual ε-domination, with the same
// private work counters. This is the correctness core of the distributed
// path: a coordinator that runs each slab in a different process and
// merges the results loses nothing against one process sharing an archive.
func TestRunSlabUnionEquivalence(t *testing.T) {
	for _, seed := range []int64{41, 42, 43} {
		g := fixtureGraph(t, seed)
		cfg := fixtureConfig(t, g, 0.3, 3)
		merged, stats := runAllSlabs(t, cfg)

		ref, err := newRunnerT(t, cfg).ParQGen(4)
		if err != nil {
			t.Fatal(err)
		}
		wantBoxes := make(map[pareto.Box]bool)
		for _, p := range ref.Points() {
			wantBoxes[pareto.BoxOf(p, cfg.Eps)] = true
		}
		gotBoxes := make(map[pareto.Box]bool)
		for _, e := range merged.Entries() {
			gotBoxes[e.Box] = true
		}
		if !reflect.DeepEqual(gotBoxes, wantBoxes) {
			t.Errorf("seed %d: slab-union box set %v != ParQGen box set %v", seed, gotBoxes, wantBoxes)
		}
		mergedPoints := merged.Points()
		if em := pareto.MinEps(mergedPoints, ref.Points()); em > cfg.Eps+1e-9 {
			t.Errorf("seed %d: merged set does not ε-dominate ParQGen set: ε_m = %v", seed, em)
		}
		if em := pareto.MinEps(ref.Points(), mergedPoints); em > cfg.Eps+1e-9 {
			t.Errorf("seed %d: ParQGen set does not ε-dominate merged set: ε_m = %v", seed, em)
		}
		if stats.Spawned != ref.Stats.Spawned || stats.Verified != ref.Stats.Verified ||
			stats.Feasible != ref.Stats.Feasible || stats.Pruned != ref.Stats.Pruned {
			t.Errorf("seed %d: slab stats %+v != ParQGen private counters spawned=%d verified=%d feasible=%d pruned=%d",
				seed, stats, ref.Stats.Spawned, ref.Stats.Verified, ref.Stats.Feasible, ref.Stats.Pruned)
		}
	}
}

// TestRunSlabDeterminism: the same slab run twice produces byte-identical
// entry sequences — the property the coordinator's deterministic merge
// order builds on, and what makes cross-process retry safe.
func TestRunSlabDeterminism(t *testing.T) {
	g := fixtureGraph(t, 44)
	cfg := fixtureConfig(t, g, 0.3, 3)
	plan := PlanSlabs(cfg.Template)
	for _, level := range plan.Levels {
		a, err := newRunnerT(t, cfg).RunSlab(plan.SplitVar, level)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newRunnerT(t, cfg).RunSlab(plan.SplitVar, level)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Entries, b.Entries) {
			t.Fatalf("level %d: slab re-run diverged:\n%v\n%v", level, a.Entries, b.Entries)
		}
		clear(a.Stats.Wall[:]) // clocks, not counts
		clear(b.Stats.Wall[:])
		if a.Stats != b.Stats {
			t.Fatalf("level %d: slab re-run stats diverged: %+v vs %+v", level, a.Stats, b.Stats)
		}
	}
}

// TestRunSlabEntriesSerializable: entries carry everything a remote
// merge needs — bindings that re-instantiate to the same rendered text.
func TestRunSlabEntriesSerializable(t *testing.T) {
	g := fixtureGraph(t, 45)
	cfg := fixtureConfig(t, g, 0.3, 3)
	plan := PlanSlabs(cfg.Template)
	found := 0
	for _, level := range plan.Levels {
		res, err := newRunnerT(t, cfg).RunSlab(plan.SplitVar, level)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range res.Entries {
			found++
			q := query.MustInstance(cfg.Template, query.Instantiation(e.Bindings))
			if q.String() != e.Text {
				t.Fatalf("bindings %v render %q, entry says %q", e.Bindings, q.String(), e.Text)
			}
			if e.Bindings[plan.SplitVar] != level {
				t.Fatalf("entry %v escaped its slab (level %d)", e.Bindings, level)
			}
		}
	}
	if found == 0 {
		t.Fatal("no slab produced entries")
	}
}

// TestRunSlabValidation: out-of-range split variables and levels error.
func TestRunSlabValidation(t *testing.T) {
	g := fixtureGraph(t, 46)
	cfg := fixtureConfig(t, g, 0.3, 3)
	r := newRunnerT(t, cfg)
	if _, err := r.RunSlab(99, 0); err == nil {
		t.Error("split variable out of range accepted")
	}
	if _, err := r.RunSlab(-2, 0); err == nil {
		t.Error("negative split variable accepted")
	}
	plan := PlanSlabs(cfg.Template)
	if _, err := r.RunSlab(plan.SplitVar, 99); err == nil {
		t.Error("level out of range accepted")
	}
}

// TestRunSlabNoVariables: a template without variables plans one slab with
// SplitVar -1, and RunSlab evaluates the single root instance.
func TestRunSlabNoVariables(t *testing.T) {
	g := fixtureGraph(t, 47)
	tpl, err := query.NewBuilder("fixed").
		Node("u_o", "Person").Literal("u_o", "title", graph.OpEQ, graph.Str("Director")).
		Output("u_o").Build()
	if err != nil {
		t.Fatal(err)
	}
	plan := PlanSlabs(tpl)
	if plan.SplitVar != -1 || plan.NumSlabs() != 1 {
		t.Fatalf("no-variable plan %+v, want SplitVar -1 with one slab", plan)
	}
	cfg := &Config{
		G: g, Template: tpl,
		Groups: groups.EqualOpportunity(groups.ByAttribute(g, "Person", "gender"), 3),
		Eps:    0.3,
	}
	res, err := newRunnerT(t, cfg).RunSlab(plan.SplitVar, plan.Levels[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Verified != 1 {
		t.Fatalf("verified %d instances, want 1", res.Stats.Verified)
	}
	if len(res.Entries) != 1 {
		t.Fatalf("entries %v, want the single feasible root", res.Entries)
	}
	sort.Ints(res.Entries[0].Bindings) // no variables: bindings must be empty
	if len(res.Entries[0].Bindings) != 0 {
		t.Fatalf("no-variable instance has bindings %v", res.Entries[0].Bindings)
	}
}
