package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"fairsqg/internal/graph"
	"fairsqg/internal/groups"
	"fairsqg/internal/match"
	"fairsqg/internal/query"
)

// storeShapes are the benchmark's four template shapes (benchmark/templates)
// over fixtureGraph's schema, ladders pinned.
var storeShapes = map[string]string{
	"star": `template star
node u_o Person title = "Director"
node u1 Person yearsOfExp >= $x1
node u2 Person yearsOfExp >= $x2
node u3 Org employees >= 100
edge u1 u_o recommend ?e1
edge u2 u_o recommend ?e2
edge u_o u3 worksAt
ladder $x1 4 10
ladder $x2 4 10
output u_o
`,
	"chain": `template chain
node u_o Person title = "Director"
node u1 Person yearsOfExp >= $x1
node u2 Person yearsOfExp >= 3
node u3 Org employees >= $x3
edge u1 u_o recommend
edge u2 u1 recommend ?e1
edge u2 u3 worksAt
ladder $x1 4 10
ladder $x3 100 1000
output u_o
`,
	"tree": `template tree
node u_o Person title = "Director"
node u1 Person yearsOfExp >= $x1
node u2 Person
node u3 Person yearsOfExp >= $x2
node u4 Org employees >= 100
edge u1 u_o recommend
edge u2 u_o recommend ?e1
edge u3 u1 recommend ?e2
edge u1 u4 worksAt
ladder $x1 4 10
ladder $x2 4 10
output u_o
`,
	"cycle": `template cycle
node u_o Person title = "Director"
node u1 Person yearsOfExp >= $x1
node u2 Person yearsOfExp <= $x2
edge u1 u_o recommend
edge u2 u1 recommend ?e1
edge u_o u2 recommend ?e2
ladder $x1 4 10
ladder $x2 16 8
output u_o
`,
}

// shapeConfig is one job over a storeShapes template: gender groups under
// the given constraint, tolerance and λ, on engine (nil: run-owned).
func shapeConfig(t testing.TB, g *graph.Graph, shape string, cover int, eps, lambda float64, engine *match.Engine) *Config {
	t.Helper()
	tpl, err := query.ParseString(storeShapes[shape])
	if err != nil {
		t.Fatal(err)
	}
	set := groups.EqualOpportunity(groups.ByAttribute(g, "Person", "gender"), cover)
	return &Config{G: g, Template: tpl, Groups: set, Eps: eps, Lambda: lambda, MaxPairs: -1, Engine: engine}
}

// TestStatsSayWhatWasReused: a job's Stats carry how much of it the store
// answered; the first job on an engine reuses only what it stored itself.
func TestStatsSayWhatWasReused(t *testing.T) {
	g := fixtureGraph(t, 4)
	e := match.NewEngine(g, match.EngineOptions{})
	first, err := newRunnerT(t, shapeConfig(t, g, "tree", 2, 0.1, 0.5, e)).RfQGen()
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.DerivedReused != 0 || first.Stats.AnswersReused >= first.Stats.Verified {
		t.Errorf("first job on an engine: %+v", first.Stats)
	}
	second, err := newRunnerT(t, shapeConfig(t, g, "tree", 2, 0.1, 0.5, e)).RfQGen()
	if err != nil {
		t.Fatal(err)
	}
	// Degree relevance and the feature table; every instance the bound
	// check let through the first time.
	if second.Stats.DerivedReused != 2 || second.Stats.AnswersReused == 0 || second.Stats.AnswersReused > second.Stats.Verified {
		t.Errorf("second job: %+v", second.Stats)
	}
	if second.Stats.Verified != first.Stats.Verified || second.Stats.Matcher.ScratchPlans >= first.Stats.Matcher.ScratchPlans+2 {
		t.Errorf("second job verified %d (first %d), scratch plans %d → %d", second.Stats.Verified, first.Stats.Verified,
			first.Stats.Matcher.ScratchPlans, second.Stats.Matcher.ScratchPlans)
	}
	// The structures were taken when the runner was bound, once: a second run
	// on that runner does not report them again (Stats.Add would count four).
	r := newRunnerT(t, shapeConfig(t, g, "tree", 2, 0.1, 0.5, e))
	var sum Stats
	for range 2 {
		res, err := r.RfQGen()
		if err != nil {
			t.Fatal(err)
		}
		sum.Add(res.Stats)
	}
	if sum.DerivedReused != 2 || sum.AnswersReused != 2*second.Stats.AnswersReused {
		t.Errorf("two runs on one runner: %d structures, %d answers reused (one run: 2, %d)", sum.DerivedReused, sum.AnswersReused, second.Stats.AnswersReused)
	}
}

// storedAnswers counts the records of r's last run whose answer e's store
// holds.
func storedAnswers(e *match.Engine, r *Runner) int {
	n := 0
	for _, v := range r.cache {
		if _, ok := e.Answer(match.AnswerKey(v.Q)); ok {
			n++
		}
	}
	return n
}

// TestBudgetedEngineKeepsNoAnswers: under a backtracking budget an answer
// depends on what it was searched inside — a parent's answer, truncated or
// not — so an injected engine with one stores none: a second job finds only
// the scoring structures and returns what the first did.
func TestBudgetedEngineKeepsNoAnswers(t *testing.T) {
	g := fixtureGraph(t, 4)
	e := match.NewEngine(g, match.EngineOptions{Settings: match.Settings{MaxBacktrackNodes: 1}})
	var runs [2]map[string][]string
	for i := range runs {
		runs[i] = runAll(t, shapeConfig(t, g, "cycle", 2, 0.1, 0.5, e))
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Errorf("second job on a budgeted engine:\n%v\nfirst:\n%v", runs[1], runs[0])
	}
	unbounded := runAll(t, shapeConfig(t, g, "cycle", 2, 0.1, 0.5, nil))
	if reflect.DeepEqual(runs[0], unbounded) {
		t.Error("a budget of 1 truncated nothing: the test shows nothing")
	}
	r := newRunnerT(t, shapeConfig(t, g, "cycle", 2, 0.1, 0.5, e))
	if _, err := r.RfQGen(); err != nil || len(r.cache) == 0 || storedAnswers(e, r) != 0 {
		t.Errorf("a budgeted engine holds %d of %d answers (err %v), want none", storedAnswers(e, r), len(r.cache), err)
	}
}

// TestRunOwnedEnginesShareNothing: without an injected engine no run looks
// up an answer or a derived value, or leaves an answer behind — the library
// and CLI paths are cold by construction, whatever the algorithm; the store
// serves their candidate lists only.
func TestRunOwnedEnginesShareNothing(t *testing.T) {
	g := fixtureGraph(t, 4)
	for name, run := range map[string]func(r *Runner) (Stats, error){
		"rf": func(r *Runner) (Stats, error) { res, err := r.RfQGen(); return statsOf(res), err },
		"bi": func(r *Runner) (Stats, error) { res, err := r.BiQGen(); return statsOf(res), err },
		"online": func(r *Runner) (Stats, error) {
			res, err := r.OnlineQGen(NewRandomStream(r.cfg.Template, 60, 3), OnlineOptions{K: 4, Window: 8})
			if err != nil {
				return Stats{}, err
			}
			return res.Stats, nil
		},
	} {
		r := newRunnerT(t, shapeConfig(t, g, "cycle", 2, 0.1, 0.5, nil))
		st, err := run(r)
		if err != nil {
			t.Fatal(err)
		}
		es := r.engine.Stats()
		if sh, cs := es.Shared, es.Cache; sh.Hits+sh.Misses != cs.Hits+cs.Misses || st.AnswersReused != 0 || st.DerivedReused != 0 {
			t.Errorf("%s on a run-owned engine: store %+v, candidate lists %+v, reused %d answers and %d structures", name, sh, cs, st.AnswersReused, st.DerivedReused)
		}
		if n := storedAnswers(r.engine, r); n != 0 || len(r.cache) == 0 {
			t.Errorf("%s left %d of %d answers in its store", name, n, len(r.cache))
		}
		if st.Verified == 0 {
			t.Errorf("%s verified nothing", name)
		}
	}
}

func statsOf(res *Result) Stats {
	if res == nil {
		return Stats{}
	}
	return res.Stats
}

// TestConcurrentJobsShareOneEngine: jobs over one template running at once
// on one engine — each other's answers arriving in the store mid-run — all
// return the cold result, and none writes to an answer it took from the
// store: every stored answer is intact afterwards, and under -race a write
// would trip against the other jobs' reads.
func TestConcurrentJobsShareOneEngine(t *testing.T) {
	g := fixtureGraph(t, 4)
	algs := map[string]func(r *Runner) (*Result, error){
		"rf":   func(r *Runner) (*Result, error) { return r.RfQGen() },
		"bi":   func(r *Runner) (*Result, error) { return r.BiQGen() },
		"enum": func(r *Runner) (*Result, error) { return r.EnumQGen() },
		"par":  func(r *Runner) (*Result, error) { return r.ParQGen(2) },
	}
	cold := map[string][]string{}
	for name, run := range algs {
		res, err := run(newRunnerT(t, shapeConfig(t, g, "star", 2, 0.1, 0.5, nil)))
		if err != nil {
			t.Fatal(err)
		}
		cold[name] = sortedFingerprint(res)
	}
	e := match.NewEngine(g, match.EngineOptions{})
	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for name, run := range algs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := run(newRunnerT(t, shapeConfig(t, g, "star", 2, 0.1, 0.5, e)))
				if err != nil {
					t.Error(err)
					return
				}
				if got := sortedFingerprint(res); !equalStrings(got, cold[name]) {
					t.Errorf("%s beside other jobs:\n%v\non its own:\n%v", name, got, cold[name])
				}
			}()
		}
	}
	wg.Wait()

	// Every instance's stored answer is what a matcher of its own computes.
	tpl := shapeConfig(t, g, "star", 2, 0.1, 0.5, nil).Template
	stored := 0
	EnumerateInstantiations(tpl, func(in query.Instantiation) bool {
		q := query.MustInstance(tpl, in)
		if got, ok := e.Answer(match.AnswerKey(q)); ok {
			stored++
			if want := match.New(g).EvalOutput(q); !slices.Equal(got, want) {
				t.Errorf("%s: stored answer %v, want %v", q, got, want)
			}
		}
		return true
	})
	if stored == 0 {
		t.Error("twelve jobs stored no answer")
	}
	if n := e.Stats().DomainsHeld; n != 0 {
		t.Errorf("%d matcher domains still held", n)
	}
}

// sortedFingerprint renders a result as its lattice counters and sorted
// lines: "instance|δ|f|answer" with exact floats.
func sortedFingerprint(res *Result) []string {
	out := archiveFingerprint(res.Set)
	slices.Sort(out)
	return append(out, fmt.Sprint(res.Stats.Spawned, res.Stats.Verified, res.Stats.Feasible, res.Stats.Pruned))
}

// TestOnlineQGenReturnsOnCancel: a context cancelled mid-stream or in the
// middle of a re-score ends OnlineQGen with the context's error — no result
// built from placeholders — and every matcher buffer is back on its engine.
func TestOnlineQGenReturnsOnCancel(t *testing.T) {
	g := fixtureGraph(t, 30)
	for _, where := range []string{"mid-stream", "mid-rescore"} {
		cfg := fixtureConfig(t, g, 0.05, 3)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg.Ctx = ctx
		live := graph.NewLive(g)
		defer live.Close()
		r := newRunnerT(t, cfg)
		defer r.Close()
		var stream *mutatingStream
		rescoring, seen, cancelledAt := false, 0, 0
		cfg.OnVerified = func(VerifyEvent) {
			// The 30th verification of the stream, or the second one of the
			// re-score the batch before arrival 60 sets off.
			if seen++; where == "mid-stream" && seen == 30 || rescoring && seen == 2 {
				cancelledAt = stream.n
				cancel()
			}
		}
		stream = &mutatingStream{inner: NewRandomStream(cfg.Template, 120, 11), at: 60, fire: func() {
			if where == "mid-stream" {
				return
			}
			if _, err := live.Apply([]graph.Mutation{{Op: graph.MutRemoveNode, Node: 0}}); err != nil {
				t.Fatal(err)
			}
			rescoring, seen = true, 0
		}}
		res, err := r.OnlineQGen(stream, OnlineOptions{K: 4, Window: 20, Mutations: &LiveMutations{L: live}})
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("%s: result %v, err %v, want context.Canceled", where, res, err)
		}
		if stream.n != cancelledAt || where == "mid-rescore" && cancelledAt != 60 {
			t.Errorf("%s: cancelled at arrival %d, yet the stream went on to arrival %d", where, cancelledAt, stream.n)
		}
		if n := r.engine.Stats().DomainsHeld; n != 0 {
			t.Errorf("%s: %d matcher domains still held", where, n)
		}
	}
}

// TestStoreHitSeedsFromKeptAncestor pins the seed under a record an injected
// engine's store answered: it keeps no domains of its own, so its
// refinements plan from the nearest kept ancestor's, in enumerate's walk as
// in exploreSlab's. The engine is warmed by one BiQGen job, so the EnumQGen
// job after it is answered partly from the store and partly by plans;
// planning those from the root's domains instead inherits 25, 74 and 64
// arcs. (On the star no stored record has a planned refinement.)
func TestStoreHitSeedsFromKeptAncestor(t *testing.T) {
	g := fixtureGraph(t, 4)
	for shape, want := range map[string]int{"chain": 34, "tree": 99, "cycle": 88} {
		e := match.NewEngine(g, match.EngineOptions{})
		_, err := newRunnerT(t, shapeConfig(t, g, shape, 1, 0.3, 0.2, e)).BiQGen()
		must(t, err)
		before := e.Stats()
		res, err := newRunnerT(t, shapeConfig(t, g, shape, 4, 0.05, 0.9, e)).EnumQGen()
		must(t, err)
		if arcs := e.Stats().ArcsInherited - before.ArcsInherited; arcs != want || res.Stats.AnswersReused == 0 {
			t.Errorf("%s: %d arcs inherited, %d answers reused; want %d arcs", shape, arcs, res.Stats.AnswersReused, want)
		}
	}
}
