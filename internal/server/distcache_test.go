package server

import (
	"fmt"
	"net/http"
	"testing"
	"time"

	"fairsqg/internal/core"
	"fairsqg/internal/graph"
)

// distCacheMetrics scrapes the aggregate pair-distance cache counters off
// /metrics.
func distCacheMetrics(t *testing.T, baseURL string) (evals, hits int64) {
	t.Helper()
	var doc struct {
		DistCache struct {
			Evals int64 `json:"evals"`
			Hits  int64 `json:"hits"`
		} `json:"distCache"`
	}
	doJSON(t, http.MethodGet, baseURL+"/metrics", nil, http.StatusOK, &doc)
	return doc.DistCache.Evals, doc.DistCache.Hits
}

// namedTestGraph is testGraph with a distinct free-text name on every
// person, a column whose pairs the tuple distance sums in a pair loop.
func namedTestGraph(t *testing.T, seed int64) *graph.Graph {
	t.Helper()
	g := testGraph(t, seed)
	var batch []graph.Mutation
	for _, v := range g.NodesByLabel("Person") {
		batch = append(batch, graph.Mutation{Op: graph.MutSetAttr, Node: v, Attr: "name",
			Value: graph.Str(fmt.Sprintf("person-%03d-%c", v, 'a'+rune(v%26)))})
	}
	named, _, err := graph.ApplyBatch(g, batch)
	if err != nil {
		t.Fatal(err)
	}
	return named
}

// runTestJob submits spec, waits for it to finish and returns its result.
func runTestJob(t *testing.T, baseURL string, spec JobSpec) JobResult {
	t.Helper()
	st := submitJob(t, baseURL, spec)
	if f := pollDone(t, baseURL, st.ID); f.State != JobDone {
		t.Fatalf("job state = %s (%s)", f.State, f.Error)
	}
	var res JobResult
	doJSON(t, http.MethodGet, baseURL+"/v1/jobs/"+st.ID+"/result", nil, http.StatusOK, &res)
	return res
}

// TestDistCacheCountersAcrossJobs pins the /metrics distCache contract:
// jobs evaluate the default tuple distance directly, so two identical jobs
// on one graph each report the same, non-zero number of evaluations (the
// free-text name's pairs), the shared engine's aggregate grows by that much
// per job, and no hits appear anywhere.
func TestDistCacheCountersAcrossJobs(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	uploadGraph(t, ts.URL, "talent", namedTestGraph(t, 7))
	spec := testSpec("talent")

	jobEvals := func() int64 {
		res := runTestJob(t, ts.URL, spec)
		if dc := res.Stats.DistCache; dc.Hits != 0 || dc.Misses != 0 {
			t.Errorf("job reports pair-cache traffic on the direct path: %+v", dc)
		}
		return res.Stats.DistCache.Evals
	}
	first := jobEvals()
	if first == 0 {
		t.Fatal("first job evaluated no pairwise distances")
	}
	evals1, hits1 := distCacheMetrics(t, ts.URL)
	if evals1 != first || hits1 != 0 {
		t.Errorf("/metrics after one job: %d evals, %d hits; the job reported %d evals", evals1, hits1, first)
	}
	if second := jobEvals(); second != first {
		t.Errorf("identical jobs report %d and %d evaluations", first, second)
	}
	if evals2, hits2 := distCacheMetrics(t, ts.URL); evals2 != 2*first || hits2 != 0 {
		t.Errorf("/metrics after two jobs: %d evals, %d hits; want %d, 0", evals2, hits2, 2*first)
	}
}

// TestJobClocksAreTheJobs: a job's plan, search and score clocks hold its
// own evaluations, not the shared engine's lifetime totals, so on a job
// that runs on one goroutine they sum to no more than its elapsed time: a
// light job after a heavy one on the same graph included.
func TestJobClocksAreTheJobs(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	uploadGraph(t, ts.URL, "talent", namedTestGraph(t, 7))
	heavy, light := testSpec("talent"), testSpec("talent")
	heavy.Algorithm, heavy.MaxDomain = "enum", 12
	light.MaxDomain = 2
	for job, spec := range []JobSpec{heavy, light} {
		res := runTestJob(t, ts.URL, spec)
		w := res.Stats.Wall
		clocks := w[core.PhasePlan] + w[core.PhaseSearch] + w[core.PhaseScore]
		elapsed := time.Duration(res.ElapsedMs * float64(time.Millisecond))
		if clocks > elapsed {
			t.Errorf("job %d: plan %v + search %v + score %v > elapsed %v", job+1,
				w[core.PhasePlan], w[core.PhaseSearch], w[core.PhaseScore], elapsed)
		}
	}
}

// TestSpecLambdaPointer: an omitted lambda selects the default, an explicit
// JSON 0 reaches the config as a deliberate pure-relevance request.
func TestSpecLambdaPointer(t *testing.T) {
	r := NewRegistry()
	if err := r.Put("talent", testGraph(t, 7)); err != nil {
		t.Fatal(err)
	}
	h, err := r.Acquire("talent")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()

	spec := testSpec("talent")
	cfg, err := buildConfig(&spec, h)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.LambdaSet {
		t.Error("omitted lambda marked as set")
	}

	zero := 0.0
	spec.Lambda = &zero
	cfg, err = buildConfig(&spec, h)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.LambdaSet || cfg.Lambda != 0 {
		t.Errorf("explicit lambda 0 lost: LambdaSet=%v Lambda=%v", cfg.LambdaSet, cfg.Lambda)
	}

	// A negative maxPairs passes through as the exact-scoring request.
	spec.MaxPairs = -1
	cfg, err = buildConfig(&spec, h)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MaxPairs != -1 {
		t.Errorf("maxPairs -1 rewritten to %d", cfg.MaxPairs)
	}
}
