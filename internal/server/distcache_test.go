package server

import (
	"net/http"
	"testing"
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

// TestDistCacheCountersAcrossJobs pins the /metrics distCache contract:
// jobs evaluate the default tuple distance directly, so two identical jobs
// on one graph each report the same, non-zero number of evaluations, the
// shared engine's aggregate grows by that much per job, and no hits appear
// anywhere.
func TestDistCacheCountersAcrossJobs(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	g := testGraph(t, 7)
	uploadGraph(t, ts.URL, "talent", g)
	spec := testSpec("talent")

	jobEvals := func() int64 {
		st := submitJob(t, ts.URL, spec)
		if f := pollDone(t, ts.URL, st.ID); f.State != JobDone {
			t.Fatalf("job state = %s (%s)", f.State, f.Error)
		}
		var res JobResult
		doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/result", nil, http.StatusOK, &res)
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

// TestSpecLambdaPointer: an omitted lambda selects the default, an explicit
// JSON 0 reaches the config as a deliberate pure-relevance request.
func TestSpecLambdaPointer(t *testing.T) {
	r := NewRegistry(0)
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
