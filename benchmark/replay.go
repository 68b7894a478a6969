package main

import (
	"sync"
	"time"

	"fairsqg/internal/core"
	"fairsqg/internal/graph"
	"fairsqg/internal/groups"
	"fairsqg/internal/match"
	"fairsqg/internal/measure"
	"fairsqg/internal/pareto"
	"fairsqg/internal/query"
)

// verifiedRec is one verification the traced pass observed through
// Config.OnVerified: enough to put the same instance through each layer
// again.
type verifiedRec struct {
	inst     query.Instantiation
	feasible bool
	at       time.Time
}

// layerTrace collects what the traced pass and its replay learn about the
// layers: duration samples (percentiles are taken at the end), counters
// summed over ops, and values a workload sets directly. Safe for
// concurrent use — ParQGen and the server call hooks from several
// goroutines.
type layerTrace struct {
	mu       sync.Mutex
	samples  map[string][]time.Duration
	counters map[string]float64
	values   map[string]float64
	recs     map[int][]verifiedRec
}

func newLayerTrace() *layerTrace {
	return &layerTrace{
		samples:  make(map[string][]time.Duration),
		counters: make(map[string]float64),
		values:   make(map[string]float64),
		recs:     make(map[int][]verifiedRec),
	}
}

func (lt *layerTrace) sample(key string, d time.Duration) {
	lt.mu.Lock()
	lt.samples[key] = append(lt.samples[key], d)
	lt.mu.Unlock()
}

func (lt *layerTrace) count(key string, v float64) {
	lt.mu.Lock()
	lt.counters[key] += v
	lt.mu.Unlock()
}

func (lt *layerTrace) set(key string, v float64) {
	lt.mu.Lock()
	lt.values[key] = v
	lt.mu.Unlock()
}

// hook returns an OnVerified callback that records op's verification
// sequence and drops a verify#k mark under the op's run span.
func (lt *layerTrace) hook(tr *tracer, runSpan, op, lane int) func(core.VerifyEvent) {
	return func(ev core.VerifyEvent) {
		now := time.Now()
		tr.mark(runSpan, op, lane, "verify")
		lt.mu.Lock()
		lt.recs[op] = append(lt.recs[op], verifiedRec{inst: ev.Instance.I.Clone(), feasible: ev.Feasible, at: now})
		lt.mu.Unlock()
	}
}

// takeRecs returns and forgets op's recorded verifications.
func (lt *layerTrace) takeRecs(op int) []verifiedRec {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	recs := lt.recs[op]
	delete(lt.recs, op)
	return recs
}

// addStats folds a run's exact counters in. Matcher and cache counters
// are skipped when the run shared an engine: those are the engine's
// cumulative numbers, read once from the engine instead.
func (lt *layerTrace) addStats(s core.Stats, ownEngine bool) {
	lt.count("core.spawned", float64(s.Spawned))
	lt.count("core.verified", float64(s.Verified))
	lt.count("core.feasible", float64(s.Feasible))
	lt.count("core.pruned", float64(s.Pruned))
	lt.count("core.sandwich_pairs", float64(s.SandwichPairs))
	lt.count("inc_scores", float64(s.IncScores))
	if !ownEngine {
		return
	}
	lt.addMatcher(s.Matcher.Evals, s.Matcher.BacktrackNodes, s.Matcher.CandidatesChecked,
		s.Matcher.SigPruned, s.Matcher.IndexSelections, s.Matcher.ScanSelections)
	lt.addCaches(s.Cache, s.DistCache)
}

func (lt *layerTrace) addMatcher(evals, backtrack, checked, sigPruned, index, scan int) {
	lt.count("match.evals", float64(evals))
	lt.count("match.backtrack_nodes", float64(backtrack))
	lt.count("match.candidates_checked", float64(checked))
	lt.count("match.sig_pruned", float64(sigPruned))
	lt.count("match.index_selections", float64(index))
	lt.count("match.scan_selections", float64(scan))
}

func (lt *layerTrace) addCaches(c match.CacheStats, d measure.PairCacheStats) {
	lt.count("cand_hits", float64(c.Hits))
	lt.count("cand_misses", float64(c.Misses))
	lt.count("measure.pair_evals", float64(d.Evals))
	lt.count("pair_hits", float64(d.Hits))
	lt.count("pair_misses", float64(d.Misses))
	lt.count("measure.pair_cache_clears", float64(d.Clears))
}

// replayOp puts one op's verified instances through each layer's public
// function under replay.<layer> spans. This is attribution, not an exact
// decomposition: the real run verified incrementally inside its parent's
// matches, scored children from their parent's state and hit warm caches;
// the replay evaluates every instance from scratch. core.replay_ratio
// says by how much the two differ.
func (lt *layerTrace) replayOp(tr *tracer, op int, g *graph.Graph, spec *opSpec, realRun time.Duration) {
	recs := lt.takeRecs(op)
	if len(recs) == 0 {
		return
	}
	// Gaps between consecutive verifications of a sequential run are the
	// per-instance cost as the real run paid it (spawning included).
	if spec.Alg != "par" {
		for i := 1; i < len(recs); i++ {
			lt.sample("core.verify", recs[i].at.Sub(recs[i-1].at))
		}
	}
	root := tr.begin(0, op, 0, "replay")
	defer tr.end(root)
	timed := func(name, key string, fn func()) {
		id := tr.begin(root, op, 0, name)
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		tr.end(id)
		if key != "" {
			lt.sample(key, d)
		}
	}

	cfg, err := buildConfig(g, spec)
	if err != nil {
		return
	}
	tpl, set := cfg.Template, cfg.Groups
	timed("replay.query", "query.bind_domains", func() {
		// Binding is timed on a copy: it would overwrite pinned ladders.
		if t, err := query.ParseString(spec.Text); err == nil {
			t.BindDomains(g, query.DomainOptions{MaxValues: spec.MaxDomain})
		}
	})
	insts := make([]*query.Instance, len(recs))
	timed("replay.query", "", func() {
		for i, r := range recs {
			t0 := time.Now()
			q, err := query.NewInstance(tpl, r.inst)
			lt.sample("query.new_instance", time.Since(t0))
			if err == nil {
				insts[i] = q
			}
		}
		lt.count("query.instances_built", float64(len(recs)))
	})

	timed("replay.groups", "groups.by_attribute", func() {
		groupSet(g, spec.Label, spec.Attr, spec.Values)
	})

	answers := make([][]graph.NodeID, len(recs))
	timed("replay.match", "", func() {
		m := match.New(g)
		m.Cache = match.NewCandidateCache(0)
		for i, q := range insts {
			if q == nil {
				continue
			}
			t0 := time.Now()
			answers[i] = m.EvalOutput(q)
			lt.sample("match.eval", time.Since(t0))
			lt.count("matches", float64(len(answers[i])))
		}
	})

	points := make([]pareto.Point, len(recs))
	timed("replay.groups", "", func() {
		c := groups.NewCounter(g.NumNodes(), set)
		for i, a := range answers {
			t0 := time.Now()
			counts := c.Counts(a)
			lt.sample("groups.count", time.Since(t0))
			points[i].Cov = measure.CoverageCounts(set, counts)
		}
	})

	timed("replay.measure", "", func() {
		outLabel := tpl.Nodes[tpl.Output].Label
		t0 := time.Now()
		feats := measure.NewDistanceFeatures(g, spec.DistAttrs)
		lt.sample("measure.features_build", time.Since(t0))
		div := &measure.Diversity{
			Lambda:          0.5,
			Relevance:       measure.DegreeRelevance(g, outLabel),
			Distance:        measure.NewPairCache(0).Scope("replay").Wrap(feats.Func()),
			LabelPopulation: g.CountLabel(outLabel),
			MaxPairs:        max(spec.MaxPairs, 0), // exact requests pass 0 = no cap
		}
		for i, r := range recs {
			if !r.feasible {
				continue
			}
			t0 := time.Now()
			points[i].Div, _ = div.EvalState(answers[i])
			lt.sample("measure.score", time.Since(t0))
		}
	})

	timed("replay.pareto", "", func() {
		archive := pareto.NewArchive[int](spec.Eps)
		for i, r := range recs {
			if !r.feasible {
				continue
			}
			t0 := time.Now()
			res := archive.Update(points[i], i)
			lt.sample("pareto.update", time.Since(t0))
			lt.count("pareto.updates", 1)
			if res.Accepted {
				lt.count("pareto_accepted", 1)
			}
		}
		lt.sample("pareto.front_size", time.Duration(archive.Len()))
	})
	lt.sample("real_run", realRun)
}

// sampleMetrics maps a per-layer metric to the samples it is a percentile
// of. Two plain counts (front sizes, result bytes) ride in the same sample
// lists as the durations and convert back with count.
var sampleMetrics = []struct {
	metric, key string
	p           float64
	conv        func(time.Duration) float64
}{
	{"graph.wal_append_ms.p50", "graph.wal_append", 0.5, ms},
	{"graph.apply_batch_ms.p50", "graph.apply_batch", 0.5, ms},
	{"query.new_instance_us.p50", "query.new_instance", 0.5, us},
	{"query.bind_domains_ms.p50", "query.bind_domains", 0.5, ms},
	{"match.eval_ms.p50", "match.eval", 0.5, ms},
	{"match.eval_ms.p90", "match.eval", 0.9, ms},
	{"measure.score_ms.p50", "measure.score", 0.5, ms},
	{"measure.score_ms.p90", "measure.score", 0.9, ms},
	{"measure.features_build_ms", "measure.features_build", 0.5, ms},
	{"groups.count_us.p50", "groups.count", 0.5, us},
	{"groups.by_attribute_ms.p50", "groups.by_attribute", 0.5, ms},
	{"pareto.update_us.p50", "pareto.update", 0.5, us},
	{"pareto.front_size.p50", "pareto.front_size", 0.5, count},
	{"core.verify_us.p50", "core.verify", 0.5, us},
	{"core.retarget_ms.p50", "core.retarget", 0.5, ms},
	{"core.online_delay_ms.p50", "core.online_delay", 0.5, ms},
	{"server.submit_ms.p50", "server.submit", 0.5, ms},
	{"server.queue_wait_ms.p50", "server.queue_wait", 0.5, ms},
	{"server.overhead_ms.p50", "server.overhead", 0.5, ms},
	{"server.overhead_ms.p90", "server.overhead", 0.9, ms},
	{"server.result_bytes.p50", "server.result_bytes", 0.5, count},
	{"cluster.par_job_ms.p50", "cluster.par_job", 0.5, ms},
}

func count(d time.Duration) float64 { return float64(d) }

// fill writes every per-layer metric the trace can derive into m.
func (lt *layerTrace) fill(m metricValues, tr *tracer) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	for _, sm := range sampleMetrics {
		if d, _ := percentile(lt.samples[sm.key], sm.p); d > 0 {
			m[sm.metric] = sm.conv(d)
		}
	}
	for name := range m {
		if v, ok := lt.counters[name]; ok {
			m[name] = v
		}
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	c := lt.counters
	m["match.backtrack_per_match"] = ratio(c["match.backtrack_nodes"], c["matches"])
	m["match.cand_cache_hit_ratio"] = ratio(c["cand_hits"], c["cand_hits"]+c["cand_misses"])
	m["measure.pair_cache_hit_ratio"] = ratio(c["pair_hits"], c["pair_hits"]+c["pair_misses"])
	m["measure.inc_score_ratio"] = ratio(c["inc_scores"], c["core.feasible"])
	m["pareto.accept_ratio"] = ratio(c["pareto_accepted"], c["pareto.updates"])
	m["core.prune_ratio"] = ratio(c["core.pruned"], c["core.pruned"]+c["core.verified"])

	// Layer shares come from span self times of the replay: what each
	// layer's public function cost on the ops' verified instances.
	self := selfTimes(tr.snapshot())
	var replayTotal time.Duration
	for _, name := range []string{"replay.query", "replay.match", "replay.groups", "replay.measure", "replay.pareto"} {
		replayTotal += self[name]
	}
	if replayTotal > 0 {
		m["match.eval_share"] = float64(self["replay.match"]) / float64(replayTotal)
		m["measure.score_share"] = float64(self["replay.measure"]) / float64(replayTotal)
	}
	var real time.Duration
	for _, d := range lt.samples["real_run"] {
		real += d
	}
	if real > 0 {
		m["core.replay_ratio"] = float64(replayTotal) / float64(real)
	}
	for name, v := range lt.values {
		m[name] = v
	}
}
