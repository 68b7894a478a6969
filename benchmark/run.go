package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"
)

// passResult is one pass over a workload's op list.
type passResult struct {
	lat    []time.Duration // per op; 0 when the op failed (no sample)
	digest []string        // per op; "" when the op failed
	errs   []error         // per op; nil on success
	wall   time.Duration   // first op started → last op done
}

func newPassResult(n int) *passResult {
	return &passResult{lat: make([]time.Duration, n), digest: make([]string, n), errs: make([]error, n)}
}

// session is a workload with its inputs loaded, ready to answer ops.
type session interface {
	// opIDs names the ops of one pass, in run order.
	opIDs() []string
	// runPass runs every op once. tr is nil on measured passes; on the
	// traced pass it receives the spans and lt the layer samples.
	runPass(tr *tracer, lt *layerTrace) *passResult
	// verify runs the workload's cross-checks after the passes and
	// returns per-op failures (keyed by op index) and failures of the run
	// as a whole. On a traced run lt is set and verify may record what
	// replay needs (serve-jobs re-runs every job through the library
	// anyway).
	verify(best *passResult, lt *layerTrace) (perOp map[int]error, global []error)
	// replay attributes the traced pass to layers (traced runs only; it
	// runs after verify).
	replay(tr *tracer, lt *layerTrace)
	// close releases everything the session holds and reports anything
	// left behind (unreleased mappings, undrained jobs).
	close() error
}

// workload ties a name to how its inputs are opened and how set-up (open
// to first front) is timed.
type workload struct {
	// open loads the prepared inputs the way the product does.
	open func(dir string, in *inputs) (session, error)
	// setup times one fresh open-to-first-front and closes again.
	setup func(dir string, in *inputs) (time.Duration, error)
	// warmup is the number of unmeasured passes before the measured ones.
	warmup int
}

var workloadNames = []string{"gen-match", "gen-score", "serve-jobs", "live-mutate"}

func workloadByName(name string) (*workload, error) {
	switch name {
	case "gen-match":
		return genWorkload(loadTSV), nil
	case "gen-score":
		return genWorkload(loadSnapshotHeap), nil
	case "serve-jobs":
		return serveWorkload(), nil
	case "live-mutate":
		return liveWorkload(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	scale    string
	verbose  bool
}

// runReport is what one run hands to main: the driver's result line plus
// the human-readable extras.
type runReport struct {
	correct   bool
	attempted int
	failed    int
	metrics   metricValues
	defs      []metricDef
	digest    string
	notes     []string
}

// runWorkload measures one workload over inputs already prepared in dir.
func runWorkload(cfg runConfig, dir string) (*runReport, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	p, err := paramsFor(cfg.workload, cfg.scale)
	if err != nil {
		return nil, err
	}
	in, err := readInputs(dir)
	if err != nil {
		return nil, err
	}
	rep := &runReport{metrics: metricValues{}}
	note := func(format string, args ...any) { rep.notes = append(rep.notes, fmt.Sprintf(format, args...)) }
	for _, prof := range in.Profiles {
		if !prof.OK {
			note("template %s unusable: %s", prof.Template, prof.Err)
		}
	}

	sess, err := w.open(dir, in)
	if err != nil {
		return nil, fmt.Errorf("opening %s: %w", cfg.workload, err)
	}
	ids := sess.opIDs()
	if len(ids) == 0 {
		sess.close()
		return nil, errors.New("no runnable ops (every template failed its set-up check)")
	}
	// The traced run's two baseline passes warm up for each other.
	for i := 0; i < w.warmup && !cfg.trace; i++ {
		sess.runPass(nil, nil)
	}

	// Measured passes: the same ops in the same order every pass, an
	// untimed GC between passes so one pass's garbage is not collected on
	// the next one's clock. The work is fixed — R passes, sized so that
	// they take about -seconds on the reference box — because a pass count
	// that follows the clock would differ between two runs of one commit.
	// Only a host so slow that three passes already took twice the budget
	// gets fewer.
	wantPasses := p.passes
	if cfg.trace {
		wantPasses = 2 // the traced run only needs a baseline
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	var passes []*passResult
	var measured time.Duration
	for len(passes) < wantPasses && (len(passes) < 3 || cfg.seconds <= 0 || measured.Seconds() < 2*cfg.seconds) {
		pr := sess.runPass(nil, nil)
		passes = append(passes, pr)
		measured += pr.wall
		runtime.GC()
	}
	runtime.ReadMemStats(&ms1)
	peakRSS := procStatusKB("VmHWM") / 1024

	var tr *tracer
	var lt *layerTrace
	var traced *passResult
	if cfg.trace {
		tr, lt = newTracer(), newLayerTrace()
		traced = sess.runPass(tr, lt)
		runtime.GC()
	}

	// Collate: per-op best-of-R, failures, digests.
	lat := make([][]time.Duration, len(passes))
	for i, pr := range passes {
		lat[i] = pr.lat
	}
	best := newPassResult(len(ids))
	best.lat = bestOf(lat)
	opFailed := make(map[int]error)
	fastest := passes[0].wall
	for _, pr := range passes {
		fastest = min(fastest, pr.wall)
		for i := range ids {
			switch {
			case pr.errs[i] != nil:
				opFailed[i] = pr.errs[i]
			case best.digest[i] == "":
				best.digest[i] = pr.digest[i]
			case best.digest[i] != pr.digest[i]:
				opFailed[i] = fmt.Errorf("digest differs between passes: %q vs %q", best.digest[i], pr.digest[i])
			}
		}
	}
	// Set-up runs after the passes so that peak RSS above is the serving
	// path's, not that of several graph copies being loaded — half the
	// repetitions before the cross-checks and half after them, so that one
	// slow second on the host cannot catch them all.
	var setups []time.Duration
	if !cfg.trace {
		if setups, err = appendSetups(nil, w, dir, in, p.maxSetupReps/2); err != nil {
			sess.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	perOp, global := sess.verify(best, lt)
	for i, err := range perOp {
		opFailed[i] = err
	}
	if cfg.trace {
		sess.replay(tr, lt)
	}
	if err := sess.close(); err != nil {
		global = append(global, err)
	}
	failedIdx := make([]int, 0, len(opFailed))
	for i := range opFailed {
		best.lat[i] = 0 // a failed op has no latency sample
		failedIdx = append(failedIdx, i)
	}
	sort.Ints(failedIdx)
	for _, i := range failedIdx {
		note("op %s failed: %v", ids[i], opFailed[i])
	}
	for _, err := range global {
		note("check failed: %v", err)
	}
	rep.attempted = len(ids) + in.FailedOps
	rep.failed = len(opFailed) + in.FailedOps
	rep.correct = rep.failed == 0 && len(global) == 0
	rep.digest = runDigest(ids, best.digest)

	p50, _ := percentile(best.lat, 0.5)
	p90, tailOK := percentile(best.lat, 0.9)
	if !tailOK {
		note("front_ms.p90 has fewer than %d samples beyond it (%d ops)", minBeyond, len(ids))
	}
	if cfg.verbose {
		for i, id := range ids {
			note("op %-28s best %8.3f ms  %s", id, ms(best.lat[i]), best.digest[i])
		}
	}

	if !cfg.trace {
		if setups, err = appendSetups(setups, w, dir, in, p.maxSetupReps-p.maxSetupReps/2); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		opsRun := len(passes) * len(ids)
		rep.defs = endToEndMetrics
		rep.metrics["setup_s"] = medianDuration(setups).Seconds()
		rep.metrics["front_ms.p50"] = ms(p50)
		rep.metrics["front_ms.p90"] = ms(p90)
		rep.metrics["fronts_per_s"] = float64(len(ids)) / fastest.Seconds()
		rep.metrics["alloc_mb_per_front"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(opsRun) / (1 << 20)
		rep.metrics["peak_rss_mb"] = peakRSS
		note("%d ops per pass, %d passes, %.1f s measured, GOMAXPROCS %d", len(ids), len(passes), measured.Seconds(), runtime.GOMAXPROCS(0))
		return rep, nil
	}

	rep.defs = perLayerMetrics
	for _, d := range perLayerMetrics {
		rep.metrics[d.name] = 0
	}
	lt.fill(rep.metrics, tr)
	var pooled, walls []time.Duration
	for _, pr := range passes {
		pooled = append(pooled, pr.lat...)
		walls = append(walls, pr.wall)
	}
	raw50, _ := percentile(pooled, 0.5)
	raw90, _ := percentile(pooled, 0.9)
	wallsF := make([]float64, len(walls))
	for i, d := range walls {
		wallsF[i] = d.Seconds()
	}
	rep.metrics["bench.raw_front_ms.p50"] = ms(raw50)
	rep.metrics["bench.raw_front_ms.p90"] = ms(raw90)
	rep.metrics["bench.pass_spread"] = relSpread(wallsF)
	rep.metrics["bench.trace_overhead_ratio"] = traced.wall.Seconds() / fastest.Seconds()
	rep.metrics["bench.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	rep.metrics["bench.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	rep.metrics["bench.ops_per_pass"] = float64(len(ids))
	rep.metrics["bench.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	rep.metrics["bench.loadavg_1m"] = loadAvg1m()
	if cfg.traceOut != "" {
		if err := writeChromeTrace(cfg.traceOut, cfg.workload, tr.snapshot()); err != nil {
			return nil, err
		}
		note("trace written to %s (open in ui.perfetto.dev)", cfg.traceOut)
	}
	return rep, nil
}

// appendSetups repeats the workload's open-to-first-front on fresh state
// and appends the times: at least two repetitions, more (up to maxReps)
// while they are cheap, because a 0.1 s set-up timed once swings by tens
// of percent on a shared host. The metric is the median of all of them.
func appendSetups(reps []time.Duration, w *workload, dir string, in *inputs, maxReps int) ([]time.Duration, error) {
	var total time.Duration
	for n := 0; n < 2 || (n < maxReps && total < 500*time.Millisecond); n++ {
		runtime.GC()
		d, err := w.setup(dir, in)
		if err != nil {
			return nil, err
		}
		reps = append(reps, d)
		total += d
	}
	return reps, nil
}

// runDigest folds the per-op digests into one line that does not depend
// on op order, so runs of two commits (or two seeds) can be diffed by eye.
func runDigest(ids, digests []string) string {
	lines := make([]string, len(ids))
	for i := range ids {
		lines[i] = ids[i] + "=" + digests[i]
	}
	sort.Strings(lines)
	h := fnv.New32a()
	h.Write([]byte(strings.Join(lines, "\n")))
	return fmt.Sprintf("%08x", h.Sum32())
}

// sampleOps picks a seeded tenth (at least one) of the candidate indices.
func sampleOps(seed int64, candidates []int) []int {
	if len(candidates) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
	return candidates[:max(1, len(candidates)/10)]
}
