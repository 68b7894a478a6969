package core

import (
	"context"
	"errors"
	"slices"
	"testing"

	"fairsqg/internal/graph"
	"fairsqg/internal/groups"
	"fairsqg/internal/match"
	"fairsqg/internal/measure"
	"fairsqg/internal/pareto"
	"fairsqg/internal/query"
)

// checkRecords recomputes every verified record of r's memo from its match
// set alone — a fresh group count, a from-scratch EvalState — and requires
// the record to say exactly that: an adopted record must be
// indistinguishable from one that was counted and scored.
func checkRecords(t *testing.T, name string, r *Runner) {
	t.Helper()
	counter := groups.NewCounter(r.cfg.G.NumNodes(), r.cfg.Groups)
	div := r.div.Clone()
	for key, v := range r.cache {
		counts := counter.Counts(v.Matches)
		if v.Matches == nil && !v.Feasible {
			continue // vetoed by the bound, or no match: nothing was scored
		}
		if want := measure.FeasibleCounts(r.cfg.Groups, counts); v.Feasible != want {
			t.Errorf("%s: %s: feasible = %v, its %d matches say %v", name, key, v.Feasible, len(v.Matches), want)
			continue
		}
		if !v.Feasible {
			if v.Point != (pareto.Point{}) || v.score != nil {
				t.Errorf("%s: %s: infeasible record carries a score: %+v", name, key, v.Point)
			}
			continue
		}
		wantDiv, st := div.EvalState(v.Matches)
		want := pareto.Point{Div: wantDiv, Cov: measure.CoverageCounts(r.cfg.Groups, counts)}
		if v.Point != want {
			t.Errorf("%s: %s: point %+v, direct evaluation of its matches %+v", name, key, v.Point, want)
		}
		if (v.score == nil) != (st == nil) || st != nil && v.score.PairUnits() != st.PairUnits() {
			t.Errorf("%s: %s: scorer state differs from a direct evaluation's", name, key)
		}
	}
}

// TestSharedAnswerEqualsDirectScore: a verification whose answer equals its
// parent's adopts the parent's record, and that record is what counting and
// scoring the set directly gives — for exactly scored and sampled sets,
// under a search budget that cuts answers short, and for each kind of
// parent a walker passes: infeasible ones (the enumeration prefix), the root
// (BiQGen's backward sweep), a fork's slab root (ParQGen).
func TestSharedAnswerEqualsDirectScore(t *testing.T) {
	g := fixtureGraph(t, 4)
	for _, mode := range []struct {
		name     string
		maxPairs int
		budget   int
	}{{"exact", -1, 0}, {"sampled", 25, 0}, {"budget", -1, 3}} {
		walks := map[string]func(r *Runner) *Runner{
			"enum": func(r *Runner) *Runner { _, err := r.EnumQGen(); must(t, err); return r },
			"rf":   func(r *Runner) *Runner { _, err := r.RfQGen(); must(t, err); return r },
			"bi":   func(r *Runner) *Runner { _, err := r.BiQGen(); must(t, err); return r },
			"fork": func(r *Runner) *Runner {
				r.seed(nil)
				defer r.release()
				w := r.fork()
				plan := PlanSlabs(r.cfg.Template)
				exploreSlab(w, plan.SplitVar, plan.Levels[len(plan.Levels)-1],
					pareto.NewArchive[*Verified](r.cfg.Eps), noopLocker{})
				return w
			},
		}
		for walk, run := range walks {
			name := mode.name + "/" + walk
			cfg := cycleConfig(t, g)
			cfg.MaxPairs, cfg.Settings.MaxBacktrackNodes = mode.maxPairs, mode.budget
			r := run(newRunnerT(t, cfg))
			checkRecords(t, name, r)
			if r.stats.AnswersShared == 0 || r.stats.IncScores == 0 {
				t.Errorf("%s: fixture: no answer shared (%d) or none of them feasible", name, r.stats.AnswersShared)
			}
			if n := r.engine.Stats().DomainsHeld; n != 0 {
				t.Errorf("%s: %d matcher domains still held", name, n)
			}
			if walk != "enum" {
				continue
			}
			infeasible := 0
			for _, v := range r.cache {
				if !v.Feasible && len(v.Matches) > 0 {
					infeasible++
				}
			}
			if infeasible == 0 {
				t.Errorf("%s: fixture: no infeasible record with an answer to inherit from", name)
			}
			// The oracle columns share nothing and say the same.
			for _, off := range []func(c *Config){
				func(c *Config) { c.DisableIncScore = true },
				func(c *Config) { c.DisableIncremental = true },
			} {
				c := *cfg
				off(&c)
				o := newRunnerT(t, &c)
				_, err := o.EnumQGen()
				must(t, err)
				if o.stats.AnswersShared != 0 {
					t.Errorf("%s: an oracle column shared %d answers", name, o.stats.AnswersShared)
				}
				if mode.budget > 0 && c.DisableIncremental {
					continue // a budget cuts a narrowed search elsewhere: incVerify's caveat
				}
				for key, v := range r.cache {
					if ov := o.cache[key]; ov == nil || ov.Feasible != v.Feasible || ov.Point != v.Point {
						t.Errorf("%s: %s: %+v feasible=%v, oracle %+v", name, key, v.Point, v.Feasible, ov)
					}
				}
			}
		}
	}
}

// TestSharedAnswerAwkwardParents: a parent the bound check vetoed has no
// answer to share (nil matches: the child searches everything and scores
// for itself), and neither has the placeholder of a cancelled verification.
func TestSharedAnswerAwkwardParents(t *testing.T) {
	g := fixtureGraph(t, 4)
	cfg := cycleConfig(t, g)
	cfg.Groups = groups.EqualOpportunity(groups.ByAttribute(g, "Person", "gender"), 100)
	r := newRunnerT(t, cfg)
	defer r.release()
	tpl := cfg.Template
	root := r.verify(query.MustInstance(tpl, query.Root(tpl)), nil)
	if root.Feasible || root.Matches != nil {
		t.Fatalf("fixture: the root is not vetoed by the bound: %d matches", len(root.Matches))
	}
	for _, parent := range []*Verified{root, {Q: root.Q}} {
		child := r.verify(query.MustInstance(tpl, query.RefineSteps(tpl, query.Root(tpl))[0]), parent)
		if child.Feasible || r.stats.AnswersShared != 0 {
			t.Errorf("child of an answerless parent: feasible=%v, %d answers shared", child.Feasible, r.stats.AnswersShared)
		}
		delete(r.cache, child.Q.Key())
	}
	if got := r.Stats().Matcher.ScratchPlans; got != 1 {
		t.Errorf("%d plans from the labels under answerless parents, want the root's", got)
	}
}

// TestEnumerateMemoHit: an instantiation the memo already answers counts as
// spawned and pruned, is not verified again, and leaves its slot of the
// prefix stack empty — what enumerates below it inherits from further up
// and comes out the same.
func TestEnumerateMemoHit(t *testing.T) {
	g := fixtureGraph(t, 4)
	cfg := cycleConfig(t, g)
	ref := newRunnerT(t, cfg)
	want, err := ref.AllFeasible()
	must(t, err)

	r := newRunnerT(t, cfg)
	defer r.release()
	// x1 at its first level, everything after it at the root: the loosest
	// instance of a prefix, with the rest of the lattice's first quarter
	// enumerated under it.
	in := query.Root(cfg.Template)
	in[0] = 0
	pre := r.verify(query.MustInstance(cfg.Template, in), nil)
	var got []*Verified
	must(t, r.enumerate(func(v *Verified) { got = append(got, v) }))
	if pre.Feasible {
		got = append(got, pre)
	}
	if r.stats.Spawned != ref.stats.Spawned || r.stats.Pruned != 1 || r.stats.Verified != ref.stats.Verified {
		t.Errorf("counters with one memo hit: %+v, clean walk %+v", r.stats, ref.stats)
	}
	if len(got) != len(want) {
		t.Fatalf("%d feasible instances, clean walk %d", len(got), len(want))
	}
	byKey := map[string]pareto.Point{}
	for _, v := range want {
		byKey[v.Q.Key()] = v.Point
	}
	for _, v := range got {
		if p, ok := byKey[v.Q.Key()]; !ok || p != v.Point {
			t.Errorf("%s: %+v, clean walk %+v (found %v)", v.Q.Key(), v.Point, p, ok)
		}
	}
	r.release()
	if n := r.engine.Stats().DomainsHeld; n != 0 {
		t.Errorf("%d matcher domains still held", n)
	}
}

// TestRetargetLeavesNoStaleSeed: a batch adds a node that matches the root.
// The root's domains held from the old generation have no bit for it, so a
// seed that survived Retarget would lose it from every answer; the run
// instead equals a from-scratch verifier on the rebuilt graph, and both the
// abandoned engine and its successor have every buffer back — the free ones
// of the first now the second's — also when the run is cancelled in reverify.
func TestRetargetLeavesNoStaleSeed(t *testing.T) {
	g := fixtureGraph(t, 30)
	cfg := fixtureConfig(t, g, 0.05, 3)
	cfg.Engine = match.NewEngine(g, match.EngineOptions{})
	live := graph.NewLive(g)
	defer live.Close()
	r := newRunnerT(t, cfg)
	defer r.Close()

	var added graph.NodeID
	root := query.MustInstance(cfg.Template, query.Root(cfg.Template))
	items := []*query.Instance{root}
	rs := NewRandomStream(cfg.Template, 40, 5)
	for q := rs.Next(); q != nil; q = rs.Next() {
		items = append(items, q)
	}
	items = append(items, query.MustInstance(cfg.Template, query.Root(cfg.Template)))
	stream := &mutatingStream{
		inner: &SliceStream{Items: items},
		at:    20,
		fire: func() {
			res, err := live.Apply([]graph.Mutation{
				{Op: graph.MutAddNode, Label: "Person", Attrs: []graph.AttrPair{
					{Name: "title", Value: graph.Str("Director")}, {Name: "gender", Value: graph.Str("female")},
					{Name: "major", Value: graph.Str("cs")}, {Name: "yearsOfExp", Value: graph.Int(12)},
				}},
			})
			must(t, err)
			added = res.AddedNodes[0]
		},
	}
	res, err := r.OnlineQGen(stream, OnlineOptions{K: 50, Window: 50, Mutations: &LiveMutations{L: live}})
	must(t, err)
	if res.Rescores != 1 {
		t.Fatalf("Rescores = %d, want 1", res.Rescores)
	}
	if r.engine == cfg.Engine {
		t.Fatal("Retarget kept the old generation's engine")
	}
	if a, b := cfg.Engine.Stats().DomainsHeld, r.engine.Stats().DomainsHeld; a != 0 || b != 0 {
		t.Errorf("DomainsHeld after the run: old engine %d, new engine %d", a, b)
	}

	final := live.Acquire()
	defer final.Close()
	rebuilt := *cfg
	rebuilt.G, rebuilt.Engine, rebuilt.DisableIncremental = final, nil, true
	cold := newRunnerT(t, &rebuilt)
	sawAdded := false
	for _, v := range res.Set {
		want := cold.verify(v.Q, nil)
		if !slices.Equal(v.Matches, want.Matches) || v.Point != want.Point || !want.Feasible {
			t.Errorf("%s: %d matches %+v, rebuilt graph %d matches %+v feasible=%v",
				v.Q.Key(), len(v.Matches), v.Point, len(want.Matches), want.Point, want.Feasible)
		}
		if _, found := slices.BinarySearch(v.Matches, added); found {
			sawAdded = true
		}
	}
	if !sawAdded {
		t.Error("fixture: no instance of the final set matches the added node")
	}

	// Retarget handed the old engine's free buffers to its successor, so what
	// the successor hands out — the one it got last, the root's — the old
	// engine now refuses.
	d := r.engine.PlanDomains(context.Background(), root)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the old engine took back a buffer it had handed over")
			}
		}()
		cfg.Engine.ReleaseDomains(d)
	}()
	r.engine.ReleaseDomains(d)

	// The same run cancelled inside the ordered re-verification, at its third
	// instance — the root, loosest of the set, holds its domains for the rest
	// by then: both engines have every buffer back all the same.
	live2 := graph.NewLive(g)
	defer live2.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cut := *cfg
	cut.Ctx = ctx
	sinceBatch := -1
	cut.OnVerified = func(VerifyEvent) {
		if sinceBatch >= 0 {
			if sinceBatch++; sinceBatch == 3 {
				cancel()
			}
		}
	}
	r2 := newRunnerT(t, &cut)
	defer r2.Close()
	stream = &mutatingStream{inner: &SliceStream{Items: items}, at: 20, fire: func() {
		_, err := live2.Apply([]graph.Mutation{{Op: graph.MutRemoveNode, Node: 0}})
		must(t, err)
		sinceBatch = 0
	}}
	_, err = r2.OnlineQGen(stream, OnlineOptions{K: 50, Window: 50, Mutations: &LiveMutations{L: live2}})
	if !errors.Is(err, context.Canceled) || r2.engine == cut.Engine || sinceBatch != 3 {
		t.Fatalf("cancelled run: err %v, retargeted %v, %d verified on the new generation", err, r2.engine != cut.Engine, sinceBatch)
	}
	if a, b := cut.Engine.Stats().DomainsHeld, r2.engine.Stats().DomainsHeld; a != 0 || b != 0 {
		t.Errorf("DomainsHeld after a run cancelled in the ordered walk: old engine %d, new engine %d", a, b)
	}
}

// TestAncestorLookupIsBounded: over a memo of 10,000 answered records a lookup
// reads ancestorScan of them and the root's, which stands in when none of
// those is an ancestor; among ancestors it prefers the most refined, then the
// smaller answer.
func TestAncestorLookupIsBounded(t *testing.T) {
	cfg := cycleConfig(t, fixtureGraph(t, 4))
	r := newRunnerT(t, cfg)
	tpl := cfg.Template
	record := func(in query.Instantiation, matches int) *Verified {
		v := &Verified{Q: query.MustInstance(tpl, in), Matches: make([]graph.NodeID, matches)}
		r.cache[v.Q.Key()] = v
		r.answered = append(r.answered, v)
		return v
	}
	root := record(query.Root(tpl), 9)
	steps := query.RefineSteps(tpl, query.Root(tpl))
	q := query.MustInstance(tpl, query.RefineSteps(tpl, steps[0])[0])
	stranger := query.RefineSteps(tpl, steps[len(steps)-1])
	for len(r.answered) < 10000 {
		record(stranger[len(stranger)-1], 5)
	}
	if query.Refines(q, r.answered[1].Q) {
		t.Fatal("fixture: the filler record is an ancestor of q")
	}
	if got, scanned := r.parentOf(q); got != root || scanned != ancestorScan+1 {
		t.Errorf("among strangers: ancestor %v after %d records, want the root after %d", got, scanned, ancestorScan+1)
	}
	record(query.Root(tpl), 9) // as refined as nothing
	big, small := record(steps[0], 7), &Verified{Q: query.MustInstance(tpl, steps[0]), Matches: make([]graph.NodeID, 6)}
	r.answered = append(r.answered, small)
	if got, scanned := r.parentOf(q); got != small || scanned != ancestorScan {
		t.Errorf("ancestor %p after %d records, want the smaller answer %p of (root, %p, %p) after %d", got, scanned, small, big, small, ancestorScan)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// starTemplate is an LKI template with a >= and a <= range variable over one
// attribute, an Org range variable and two edge variables.
const starTemplate = `template star
node u_o Person title = "Director"
node u1 Person yearsOfExp >= $x1
node u2 Person yearsOfExp <= $x2
node u3 Org employees >= $x3
edge u1 u_o recommend ?e1
edge u2 u_o coreview ?e2
edge u_o u3 worksAt
output u_o`

// starConfig binds starTemplate to g, three values a ladder, with lax
// coverage constraints.
func starConfig(t testing.TB, g *graph.Graph) *Config {
	t.Helper()
	tpl, err := query.ParseString(starTemplate)
	if err != nil {
		t.Fatal(err)
	}
	if err := tpl.BindDomains(g, query.DomainOptions{MaxValues: 3}); err != nil {
		t.Fatal(err)
	}
	set := groups.EqualOpportunity(groups.ByAttribute(g, "Person", "gender"), 1)
	return &Config{G: g, Template: tpl, Groups: set, Eps: 0.2}
}
