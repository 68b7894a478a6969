package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairsqg/internal/cluster"
	"fairsqg/internal/pareto"
)

// newClusterWorker spins up one in-process cluster worker daemon.
func newClusterWorker(t *testing.T) (*cluster.Worker, *httptest.Server) {
	t.Helper()
	w := cluster.NewWorker(cluster.WorkerOptions{})
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)
	return w, srv
}

// newCoordinator builds a coordinator over the given worker URLs with
// test-friendly retry pacing.
func newCoordinator(t *testing.T, urls ...string) *cluster.Coordinator {
	t.Helper()
	c, err := cluster.NewCoordinator(cluster.CoordinatorOptions{
		Workers:        urls,
		Replicas:       len(urls),
		SlabRetries:    5,
		RetryBase:      5 * time.Millisecond,
		HealthInterval: 50 * time.Millisecond,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func resultPoints(res *JobResult) []pareto.Point {
	pts := make([]pareto.Point, len(res.Queries))
	for i, q := range res.Queries {
		pts[i] = pareto.Point{Div: q.Diversity, Cov: q.Coverage}
	}
	return pts
}

func pointBoxes(pts []pareto.Point, eps float64) map[pareto.Box]bool {
	set := make(map[pareto.Box]bool, len(pts))
	for _, p := range pts {
		set[pareto.BoxOf(p, eps)] = true
	}
	return set
}

// TestDistributedEndToEnd runs a par job through the full HTTP stack in
// coordinator mode — upload, submit, progress stream, result — against
// two in-process workers. (That the distributed archive and counters are
// the single-process run's is the equivalence generator's distributed
// axis, internal/match.)
func TestDistributedEndToEnd(t *testing.T) {
	wa, sa := newClusterWorker(t)
	wb, sb := newClusterWorker(t)
	coord := newCoordinator(t, sa.URL, sb.URL)
	_, ts := newTestServer(t, Options{Cluster: coord})

	g := testGraph(t, 7)
	uploadGraph(t, ts.URL, "talent", g)

	spec := testSpec("talent")
	spec.Algorithm = "par"
	st := submitJob(t, ts.URL, spec)
	done := pollDone(t, ts.URL, st.ID)
	if done.State != JobDone {
		t.Fatalf("distributed job state = %s (%s)", done.State, done.Error)
	}

	var res JobResult
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/result", nil, http.StatusOK, &res)
	if res.Algorithm != "par" || len(res.Queries) == 0 {
		t.Fatalf("distributed result: %+v", res)
	}

	// Both workers did slab work; the progress stream carried slab events.
	if wa.MetricsSnapshot() == nil || wb.MetricsSnapshot() == nil {
		t.Fatal("worker metrics unavailable")
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	slabEvents := 0
	dec := json.NewDecoder(resp.Body)
	for {
		var ev JobEvent
		if err := dec.Decode(&ev); err != nil {
			break
		}
		if ev.Type == "slab" {
			slabEvents++
		}
	}
	if slabEvents == 0 {
		t.Error("no slab events on the progress stream")
	}

	// The coordinator surfaces in /metrics under `cluster`.
	var met map[string]any
	doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, http.StatusOK, &met)
	cl, ok := met["cluster"].(map[string]any)
	if !ok {
		t.Fatalf("/metrics has no cluster section: %v", met)
	}
	if cl["liveWorkers"].(float64) != 2 {
		t.Errorf("cluster.liveWorkers = %v, want 2", cl["liveWorkers"])
	}
	if cl["slabsDispatched"].(float64) == 0 {
		t.Error("cluster.slabsDispatched = 0 after a distributed job")
	}
	if _, ok := cl["slabLatencyMs"]; !ok {
		t.Error("cluster metrics missing slabLatencyMs histogram")
	}

	// Local algorithms still run locally in coordinator mode.
	local := testSpec("talent")
	st2 := submitJob(t, ts.URL, local)
	if d := pollDone(t, ts.URL, st2.ID); d.State != JobDone {
		t.Fatalf("local bi job in coordinator mode: %s (%s)", d.State, d.Error)
	}
}

// TestCoordinatorParOnTombstonedGraph: a generation that lost a node cannot
// be shipped to workers (snapshots hold no tombstones), so in coordinator
// mode its par jobs run the local ParQGen — done, with the archive a
// standalone server computes on the same generation — instead of failing
// in WriteSnapshot.
func TestCoordinatorParOnTombstonedGraph(t *testing.T) {
	_, sa := newClusterWorker(t)
	_, sb := newClusterWorker(t)
	_, coordTS := newTestServer(t, Options{Cluster: newCoordinator(t, sa.URL, sb.URL)})
	_, aloneTS := newTestServer(t, Options{})

	spec := testSpec("talent")
	spec.Algorithm = "par"
	results := make([]JobResult, 2)
	for i, url := range []string{coordTS.URL, aloneTS.URL} {
		uploadGraph(t, url, "talent", testGraph(t, 7))
		if res := mutate(t, url, "talent", `[{"op":"removeNode","node":3}]`, http.StatusOK); res.NodesRemoved != 1 {
			t.Fatalf("removeNode: %+v", res)
		}
		st := submitJob(t, url, spec)
		if done := pollDone(t, url, st.ID); done.State != JobDone {
			t.Fatalf("par job on the tombstoned generation (%s): %s (%s)", url, done.State, done.Error)
		}
		doJSON(t, http.MethodGet, url+"/v1/jobs/"+st.ID+"/result", nil, http.StatusOK, &results[i])
	}
	got, want := &results[0], &results[1]
	if len(got.Queries) == 0 {
		t.Fatal("coordinator-mode result is empty")
	}
	if g, w := pointBoxes(resultPoints(got), got.Eps), pointBoxes(resultPoints(want), want.Eps); !reflect.DeepEqual(g, w) {
		t.Errorf("coordinator-mode box set %v != standalone box set %v", g, w)
	}
	if got.Stats.Spawned != want.Stats.Spawned || got.Stats.Verified != want.Stats.Verified ||
		got.Stats.Feasible != want.Stats.Feasible || got.Stats.Pruned != want.Stats.Pruned {
		t.Errorf("coordinator-mode stats %+v != standalone %+v", got.Stats, want.Stats)
	}
	var met map[string]any
	doJSON(t, http.MethodGet, coordTS.URL+"/metrics", nil, http.StatusOK, &met)
	if n := met["cluster"].(map[string]any)["slabsDispatched"].(float64); n != 0 {
		t.Errorf("cluster.slabsDispatched = %v: the tombstoned generation went to the fleet", n)
	}
}

// killableHandler lets one slab request through, then drops every
// connection — the worker process "dies" mid-job.
type killableHandler struct {
	inner http.Handler
	slabs atomic.Int64
	dead  atomic.Bool
}

func (k *killableHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/cluster/slab" && k.slabs.Add(1) > 1 {
		k.dead.Store(true)
	}
	if k.dead.Load() {
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
			}
			return
		}
		panic("test server must support hijack")
	}
	k.inner.ServeHTTP(w, r)
}

// TestDistributedFailover kills one of two workers mid-job at the HTTP
// level: the job must finish via failover and the archive must still
// match the single-process reference — no lost and no duplicated slabs.
func TestDistributedFailover(t *testing.T) {
	wa := cluster.NewWorker(cluster.WorkerOptions{})
	ka := &killableHandler{inner: wa.Handler()}
	sa := httptest.NewServer(ka)
	defer sa.Close()
	_, sb := newClusterWorker(t)
	coord := newCoordinator(t, sa.URL, sb.URL)
	_, ts := newTestServer(t, Options{Cluster: coord})

	g := testGraph(t, 7)
	uploadGraph(t, ts.URL, "talent", g)
	spec := testSpec("talent")
	spec.Algorithm = "par"
	st := submitJob(t, ts.URL, spec)
	done := pollDone(t, ts.URL, st.ID)
	if done.State != JobDone {
		t.Fatalf("job did not survive worker death: %s (%s)", done.State, done.Error)
	}

	var res JobResult
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/result", nil, http.StatusOK, &res)
	ref := directRun(t, spec)
	if got, want := pointBoxes(resultPoints(&res), res.Eps), pointBoxes(resultPoints(ref), ref.Eps); !reflect.DeepEqual(got, want) {
		t.Errorf("failover box set %v != reference %v", got, want)
	}
	// Exactly-once slab accounting: the merged work counters equal one
	// clean pass over the lattice, so no slab was lost or double-counted.
	if res.Stats.Spawned != ref.Stats.Spawned || res.Stats.Verified != ref.Stats.Verified ||
		res.Stats.Feasible != ref.Stats.Feasible || res.Stats.Pruned != ref.Stats.Pruned {
		t.Errorf("failover stats %+v != reference %+v (lost or duplicated slabs)", res.Stats, ref.Stats)
	}
	if !ka.dead.Load() {
		t.Fatal("doomed worker never got a second slab; nothing failed over")
	}
	var met map[string]any
	doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, http.StatusOK, &met)
	cl := met["cluster"].(map[string]any)
	if cl["slabsRetried"].(float64) == 0 {
		t.Error("cluster.slabsRetried = 0 despite a mid-job worker death")
	}
}

// TestReadyzLiveWorkers: in coordinator mode /readyz requires at least
// one live worker.
func TestReadyzLiveWorkers(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	url := dead.URL
	dead.Close()
	coord := newCoordinator(t, url)
	_, ts := newTestServer(t, Options{Cluster: coord})
	// The fleet starts optimistically alive; wait for the health sweep to
	// notice the dead worker.
	deadline := time.Now().Add(5 * time.Second)
	for coord.LiveWorkers() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with a dead fleet = %d, want 503", resp.StatusCode)
	}
}

// blockingJob occupies a manager worker until released, so queue-full
// shedding in the batch test is deterministic.
func blockingJob(t *testing.T, s *Server, graphName string) (release func()) {
	t.Helper()
	ch := make(chan struct{})
	handle, err := s.reg.Acquire(graphName)
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec(graphName)
	job, err := s.jobs.enqueue(&spec, handle, func(ctx context.Context, hub *progressHub) (*JobResult, error) {
		select {
		case <-ch:
		case <-ctx.Done():
		}
		return &JobResult{}, nil
	}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st, _ := s.jobs.Status(job.ID); st.State == JobRunning {
			var once sync.Once
			return func() { once.Do(func() { close(ch) }) }
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("blocking job never started")
	return nil
}

// TestBatchSubmit: per-item accept/shed semantics identical to single
// submit — valid specs enqueue, invalid ones carry their would-be status,
// and queue-full sheds 429 that item with a top-level Retry-After.
func TestBatchSubmit(t *testing.T) {
	s, ts := newTestServer(t, Options{Jobs: ManagerOptions{Workers: 1, QueueDepth: 2}})
	g := tinyGraph(t)
	uploadGraph(t, ts.URL, "mini", g)
	release := blockingJob(t, s, "mini")
	defer release()

	// The single manager worker is blocked and the queue holds 2: specs
	// [bad-graph, ok, ok, shed].
	bad := tinySpec("nope")
	specs := []JobSpec{bad, tinySpec("mini"), tinySpec("mini"), tinySpec("mini")}
	body, _ := json.Marshal(specs)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs/batch", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch = %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed batch has no Retry-After header")
	}
	var out struct {
		Items    []BatchItem `json:"items"`
		Accepted int         `json:"accepted"`
		Rejected int         `json:"rejected"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != 4 || out.Accepted != 2 || out.Rejected != 2 {
		t.Fatalf("batch outcome: %+v", out)
	}
	wantStatus := []int{http.StatusNotFound, http.StatusAccepted, http.StatusAccepted, http.StatusTooManyRequests}
	for i, item := range out.Items {
		if item.Status != wantStatus[i] {
			t.Errorf("item %d status %d, want %d (%+v)", i, item.Status, wantStatus[i], item)
		}
		if item.Accepted != (wantStatus[i] == http.StatusAccepted) {
			t.Errorf("item %d accepted=%v inconsistent with status %d", i, item.Accepted, item.Status)
		}
		if item.Accepted && item.ID == "" {
			t.Errorf("item %d accepted without an ID", i)
		}
	}

	// Accepted jobs complete once the blocker releases.
	release()
	for _, item := range out.Items {
		if item.Accepted {
			if st := pollDone(t, ts.URL, item.ID); st.State != JobDone {
				t.Errorf("batch job %s: %s (%s)", item.ID, st.State, st.Error)
			}
		}
	}

	// Malformed batches are rejected whole.
	for _, bad := range []string{`{}`, `[]`, `not json`} {
		resp, err := http.Post(ts.URL+"/v1/jobs/batch", "application/json", bytes.NewReader([]byte(bad)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("batch body %q = %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestRequestIDPropagation: an inbound X-Request-Id is honored and
// echoed instead of being replaced.
func TestRequestIDPropagation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "upstream-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "upstream-42" {
		t.Fatalf("X-Request-Id = %q, want the inbound id echoed", got)
	}
	// Without an inbound ID one is assigned.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("no X-Request-Id assigned")
	}
}
