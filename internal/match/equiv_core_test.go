package match_test

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"fairsqg/internal/cluster"
	"fairsqg/internal/core"
	"fairsqg/internal/graph"
	"fairsqg/internal/groups"
	"fairsqg/internal/match"
	"fairsqg/internal/pareto"
	"fairsqg/internal/query"
)

// bruteEvaluator answers every instance with the oracle on one graph: the
// core level's reference, a core.Evaluator sharing none of the engine's
// machinery. With an extra output node it answers the union of the oracle
// at the output and at that node, over the population of both labels.
// Answers are memoized by instance key (ParQGen's workers ask at once).
type bruteEvaluator struct {
	g                 *graph.Graph
	mode              match.Mode
	extra, population int // extra is -1 without an extra output node
	memo              sync.Map
}

func (b *bruteEvaluator) Answer(_ context.Context, q *query.Instance) []graph.NodeID {
	a, ok := b.memo.Load(q.Key())
	if !ok {
		ans := match.BruteForceMatches(b.g, q, b.mode, q.T.Output)
		if b.extra >= 0 {
			ans = append(ans, match.BruteForceMatches(b.g, q, b.mode, b.extra)...)
			slices.Sort(ans)
			ans = slices.Compact(ans)
		}
		a, _ = b.memo.LoadOrStore(q.Key(), ans)
	}
	return slices.Clone(a.([]graph.NodeID))
}

func (b *bruteEvaluator) Population() int { return b.population }

// brute returns the case's oracle evaluator on g.
func (c *equivCase) brute(g *graph.Graph) *bruteEvaluator {
	b := &bruteEvaluator{g: g, mode: c.settings.Mode, extra: -1, population: g.CountLabel("A")}
	if c.extra != "" {
		b.extra = c.tpl.Node(c.extra)
		if l := c.tpl.Nodes[b.extra].Label; l != "A" {
			b.population += g.CountLabel(l)
		}
	}
	return b
}

// config is the case's job on g under set: answered by ev when it is not
// nil, otherwise on engine e (an engine of its own when nil) under the
// case's inheritance and extra output node. The core level runs without a
// budget: the matcher level checks budgets.
func (c *equivCase) config(g *graph.Graph, set groups.Set, ev core.Evaluator, e *match.Engine) *core.Config {
	cfg := &core.Config{G: g, Template: c.tpl, Groups: slices.Clone(set), Eps: c.eps, Settings: match.Settings{Mode: c.settings.Mode}}
	if ev != nil {
		cfg.Evaluator = ev
		return cfg
	}
	cfg.DisableIncremental = c.inherit == "DisableIncremental"
	cfg.DisableIncScore = c.inherit == "DisableIncScore"
	if c.extra != "" {
		cfg.ExtraOutputs = []string{c.extra}
	}
	if cfg.Engine = e; e == nil {
		cfg.Engine = match.NewEngine(g, match.EngineOptions{Settings: cfg.Settings})
	}
	return cfg
}

// rootPlans reports whether the root instance plans on g: only then do
// its domains seed the rest of a run.
func (c *equivCase) rootPlans(g *graph.Graph) bool {
	e := match.NewEngine(g, match.EngineOptions{Settings: match.Settings{Mode: c.settings.Mode}})
	d := e.PlanDomains(context.Background(), query.MustInstance(c.tpl, query.Root(c.tpl)))
	e.ReleaseDomains(d)
	return d != nil
}

// bits renders a float by its bits: −0 and NaN payloads stay apart.
func bits(f float64) string { return fmt.Sprintf("%x", math.Float64bits(f)) }

// record renders one verified instance: key, answer and point bits.
func record(v *core.Verified) string {
	return fmt.Sprintf("%s|%s|%s|%v", v.Q.Key(), bits(v.Point.Div), bits(v.Point.Cov), v.Matches)
}

// equivFingerprint renders an archive's records in archive order, then the
// lattice counters.
func equivFingerprint(set []*core.Verified, st core.Stats) []string {
	out := make([]string, 0, len(set)+1)
	for _, v := range set {
		out = append(out, record(v))
	}
	return append(out, fmt.Sprintf("spawned=%d verified=%d feasible=%d pruned=%d", st.Spawned, st.Verified, st.Feasible, st.Pruned))
}

// diverged reports every run of got that differs from want's.
func diverged(t *testing.T, c *equivCase, what string, got, want map[string][]string) {
	t.Helper()
	for alg, w := range want {
		if !slices.Equal(got[alg], w) {
			t.Errorf("%v: %s diverged from %s:\ngot  %v\nwant %v", c, alg, what, got[alg], w)
		}
	}
}

// checkCore is the core level. Every algorithm, every slab of PlanSlabs and
// OnlineQGen run on the case's backing, each on an engine of its own, and
// must give what they give on the heap graph when a bruteEvaluator answers:
// the same archive payloads, bit-equal points and the same
// Spawned/Verified/Feasible/Pruned. Each of them plans from the label
// populations once (DisableIncremental: once per verification). Then the
// axes: in a warm case all of it runs again on one engine a job with
// another cover, ε and algorithm ran on first, and must give the same while
// reusing stored answers; a distributed case runs par through the cluster
// (checkCluster); a mutated case streams its script (checkScript).
func checkCore(t *testing.T, c *equivCase, reach equivReach) {
	t.Helper()
	brute := c.brute(c.heap)
	want, ref := equivSuite(t, c, func() *core.Config { return c.config(c.heap, c.groups, brute, nil) })
	got, cold := equivSuite(t, c, func() *core.Config { return c.config(c.g, c.groups, nil, nil) })
	reach.met("an rf front of two", len(ref["rf"].Set) >= 2)
	diverged(t, c, "the brute-force run", got, want)
	for name, res := range cold {
		st := res.Stats
		plans := min(1, st.Matcher.Evals)
		if c.inherit == "DisableIncremental" {
			plans = st.Matcher.Evals
		}
		if c.extra == "" && st.Matcher.ScratchPlans != plans && c.rootPlans(c.g) {
			t.Errorf("%v: %s: %d plans from the labels for %d evaluations, want %d", c, name, st.Matcher.ScratchPlans, st.Matcher.Evals, plans)
		}
	}
	if c.warm {
		e := match.NewEngine(c.g, match.EngineOptions{Settings: match.Settings{Mode: c.settings.Mode}})
		job := c.config(c.g, equivGroups(c.heap, 3-c.cover), nil, e)
		job.Eps = 0.1
		if r, err := core.NewRunner(job); err != nil {
			t.Fatalf("%v: warming: %v", c, err)
		} else if _, err := r.Run("bi", 2); err != nil {
			t.Fatalf("%v: warming: %v", c, err)
		}
		warm, runs := equivSuite(t, c, func() *core.Config { return c.config(c.g, c.groups, nil, e) })
		diverged(t, c, "its cold run on a warm engine", warm, got)
		reused := 0
		for _, res := range runs {
			reused += res.Stats.AnswersReused
		}
		reach.met("warm, answers reused", reused > 0)
		if reused == 0 && c.extra == "" && len(ref["all"].Set) > 0 {
			t.Errorf("%v: the runs on a warm engine reused no stored answer: %+v", c, e.Stats())
		}
	}
	if c.cluster {
		checkCluster(t, c, cold)
	}
	if c.script != nil {
		checkScript(t, c, reach)
	}
}

// equivSuite runs every algorithm, every slab and OnlineQGen, each on a
// runner of its own over cfg(), and returns their fingerprints and results
// (a slab's holds its counters only). A run on an engine must hand every
// matcher domain back to it, one answered by an Evaluator must leave the
// matcher unused, and the archives of enum, rf, bi and par must ε-cover
// AllFeasible (Theorem 2).
func equivSuite(t *testing.T, c *equivCase, cfg func() *core.Config) (map[string][]string, map[string]*core.Result) {
	t.Helper()
	engines := map[string]*match.Engine{}
	runner := func(name string) *core.Runner {
		cf := cfg()
		r, err := core.NewRunner(cf)
		if err != nil {
			t.Fatalf("%v: %s: %v", c, name, err)
		}
		engines[name] = cf.Engine // nil when an Evaluator answers
		return r
	}
	out := map[string][]string{}
	results := map[string]*core.Result{}
	for _, alg := range append(core.AlgorithmNames(), "all") { // every batch algorithm, and AllFeasible
		r := runner(alg)
		res := new(core.Result)
		var err error
		if alg == "all" {
			res.Set, err = r.AllFeasible()
		} else {
			res, err = r.Run(alg, 2)
		}
		if err != nil {
			t.Fatalf("%v: %s: %v", c, alg, err)
		}
		if engines[alg] == nil && res.Stats.Matcher.Evals != 0 {
			t.Errorf("%v: %s answered by the evaluator evaluated %d instances on the engine", c, alg, res.Stats.Matcher.Evals)
		}
		out[alg], results[alg] = equivFingerprint(res.Set, res.Stats), res
	}
	plan := core.PlanSlabs(c.tpl)
	for _, level := range plan.Levels {
		name := fmt.Sprint("slab ", level)
		res, err := runner(name).RunSlab(plan.SplitVar, level)
		if err != nil {
			t.Fatalf("%v: %s: %v", c, name, err)
		}
		for _, e := range res.Entries {
			out["slabs"] = append(out["slabs"], fmt.Sprintf("%d|%v|%s|%s|%d", level, e.Bindings, bits(e.Div), bits(e.Cov), e.Matches))
		}
		out["slabs"] = append(out["slabs"], equivFingerprint(nil, res.Stats)...)
		results[name] = &core.Result{Stats: res.Stats}
	}
	on, err := runner("online").OnlineQGen(core.NewRandomStream(c.tpl, 40, c.seed), core.OnlineOptions{K: 4, Window: 8})
	if err != nil {
		t.Fatalf("%v: online: %v", c, err)
	}
	out["online"] = append(equivFingerprint(on.Set, on.Stats), "eps="+bits(on.Eps))
	results["online"] = &core.Result{Set: on.Set, Stats: on.Stats}
	for name, e := range engines {
		if e != nil && e.Stats().DomainsHeld != 0 {
			t.Errorf("%v: %s left %d matcher domains held", c, name, e.Stats().DomainsHeld)
		}
	}
	for _, alg := range []string{"enum", "rf", "bi", "par"} {
		for _, f := range results["all"].Points() {
			if !slices.ContainsFunc(results[alg].Points(), func(a pareto.Point) bool { return pareto.EpsDominates(a, f, c.eps) }) {
				t.Errorf("%v: %s's archive does not ε-cover the feasible point %v", c, alg, f)
			}
		}
	}
	return out, results
}

// coldStats is s without what a worker engine's store held and without the
// clocks.
func coldStats(s core.Stats) core.Stats {
	s.AnswersReused, s.DerivedReused = 0, 0
	clear(s.Wall[:])
	return s
}

// checkCluster runs par through a cluster.Coordinator over two in-process
// workers, from the job's wire form: its entries must be the local par
// run's, and its counters, bar the workers' stores, the local slabs' sum.
func checkCluster(t *testing.T, c *equivCase, cold map[string]*core.Result) {
	t.Helper()
	var urls []string
	for range 2 {
		srv := httptest.NewServer(cluster.NewWorker(cluster.WorkerOptions{}).Handler())
		defer srv.Close()
		urls = append(urls, srv.URL)
	}
	co, err := cluster.NewCoordinator(cluster.CoordinatorOptions{Workers: urls, Replicas: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	res, err := co.RunJob(context.Background(), cluster.JobRequest{Graph: "g", G: c.g, RequestID: fmt.Sprint("seed-", c.seed), Payload: cluster.JobPayload{
		Template: query.Format(c.tpl), Groups: cluster.GroupsPayload{Label: "A", Attr: "k", Cover: c.cover}, Eps: c.eps,
	}})
	if err != nil {
		t.Fatalf("%v: distributed par: %v", c, err)
	}
	var got, want []string
	for _, e := range res.Entries {
		got = append(got, fmt.Sprintf("%s|%s|%s|%d", query.Instantiation(e.Bindings).Key(), bits(e.Div), bits(e.Cov), e.Matches))
	}
	for _, v := range cold["par"].Set {
		want = append(want, fmt.Sprintf("%s|%s|%s|%d", v.Q.I.Key(), bits(v.Point.Div), bits(v.Point.Cov), len(v.Matches)))
	}
	var sum core.Stats
	for name, r := range cold {
		if strings.HasPrefix(name, "slab ") {
			sum.Add(r.Stats)
		}
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) || coldStats(res.Stats) != coldStats(sum) {
		t.Errorf("%v: distributed par:\n%v %+v\nlocal par and slabs:\n%v %+v", c, got, coldStats(res.Stats), want, coldStats(sum))
	}
}

// scriptStream lands the case's mutation script on l while OnlineQGen
// streams: batch i before arrival 14(i+1).
type scriptStream struct {
	core.InstanceStream
	t      testing.TB
	l      *graph.Live
	script [][]graph.Mutation
	n      int
}

func (s *scriptStream) Next() *query.Instance {
	if s.n++; s.n%14 == 0 && s.n/14 <= len(s.script) {
		landBatch(s.t, s.l, s.script, s.n/14-1)
	}
	return s.InstanceStream.Next()
}

// inReverify reports whether a verification event fires from a re-score's
// level walk.
func inReverify() bool {
	pc := make([]uintptr, 32)
	frames := runtime.CallersFrames(pc[:runtime.Callers(3, pc)])
	for f, more := frames.Next(); more; f, more = frames.Next() {
		if strings.HasSuffix(f.Function, ".(*Runner).reverify") {
			return true
		}
	}
	return false
}

// setOrder orders instances as a re-score's walk commits them: by the sum
// of their lattice coordinates, then by key.
func setOrder(a, b *query.Instance) int {
	sum := func(q *query.Instance) (n int) {
		for _, l := range q.I {
			n += l
		}
		return n
	}
	return cmp.Or(cmp.Compare(sum(a), sum(b)), cmp.Compare(a.Key(), b.Key()))
}

// checkScript streams OnlineQGen over the case's graph as built, in its
// backing, while the mutation script lands through core.LiveMutations (each
// generation re-verifies the working set as a level walk). Every record of
// the final set must be the one a brute-force AllFeasible run on the final
// generation keeps for the instance, and each re-score must commit in set
// order. At GOMAXPROCS 2 the run must also record what it records at 1:
// set, counters bar the clocks and ScoreSplits, and the OnVerified
// sequence.
func checkScript(t *testing.T, c *equivCase, reach equivReach) {
	t.Helper()
	set, base := equivGroups(c.base, c.cover), c.inBacking(t, c.base)
	run := func(procs int) (fp, events []string, final *graph.Graph) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		base.Retain() // the Live releases it
		l := graph.NewLive(base)
		t.Cleanup(func() { l.Close() })
		stream := &scriptStream{InstanceStream: core.NewRandomStream(c.tpl, 40, c.seed), t: t, l: l, script: c.script}
		cfg := c.config(base, set, nil, nil)
		walk, last := -1, (*query.Instance)(nil)
		cfg.OnVerified = func(ev core.VerifyEvent) {
			events = append(events, fmt.Sprintf("%d %s %s %s %v %d", ev.Seq, ev.Instance.Key(), bits(ev.Point.Div), bits(ev.Point.Cov), ev.Feasible, ev.Matches))
			if !inReverify() {
				return
			}
			// A re-score commits its records in set order: by level sum,
			// then key.
			if walk == stream.n && setOrder(last, ev.Instance) >= 0 {
				t.Errorf("%v: the re-score after arrival %d committed %s after %s", c, stream.n, ev.Instance, last)
			}
			walk, last = stream.n, ev.Instance
			reach["re-verified"]++
		}
		r, err := core.NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		on, err := r.OnlineQGen(stream, core.OnlineOptions{K: 4, Window: 8, Mutations: &core.LiveMutations{L: l}})
		if err != nil {
			t.Fatalf("%v: online under the script: %v", c, err)
		}
		st := on.Stats
		clear(st.Wall[:])
		st.ScoreSplits = 0
		if c.extra == "" && c.inherit != "DisableIncremental" {
			if st.Matcher.ScratchPlans != 1+on.Rescores && c.rootPlans(base) && c.rootPlans(l.Graph()) {
				t.Errorf("%v: online over %d re-scores planned %d times from the labels", c, on.Rescores, st.Matcher.ScratchPlans)
			}
		} else {
			// Unseeded plans consult the candidate cache, and two views
			// missing one key at once both count the miss and select.
			st.Cache, st.Matcher.IndexSelections, st.Matcher.ScanSelections = match.CacheStats{}, 0, 0
		}
		reach.met("re-scored at GOMAXPROCS 2", procs == 2 && on.Rescores > 0)
		return append(equivFingerprint(on.Set, st), fmt.Sprintf("%d re-scores; %+v", on.Rescores, st)), events, l.Graph()
	}
	fp, events, final := run(c.procs)
	r, err := core.NewRunner(c.config(final, set, c.brute(final), nil))
	if err != nil {
		t.Fatal(err)
	}
	all, err := r.AllFeasible()
	if err != nil {
		t.Fatal(err)
	}
	feasible := map[string]bool{}
	for _, v := range all {
		feasible[record(v)] = true
	}
	for _, rec := range fp[:len(fp)-2] {
		if !feasible[rec] {
			t.Errorf("%v: online under the script keeps %s; the brute-force run on the final generation does not", c, rec)
		}
	}
	if c.procs == 2 {
		if fp1, events1, _ := run(1); !slices.Equal(fp, fp1) || !slices.Equal(events, events1) {
			t.Errorf("%v: online under the script at GOMAXPROCS 2:\n%v\n%d events; at 1:\n%v\n%d events", c, fp, len(events), fp1, len(events1))
		}
	}
}
