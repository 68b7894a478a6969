package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"fairsqg/internal/core"
	"fairsqg/internal/graph"
	"fairsqg/internal/match"
	"fairsqg/internal/pareto"
)

// testGraph mirrors the core fixture: a seeded professional network small
// enough for exhaustive enumeration.
func testGraph(t testing.TB, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	numPersons, numOrgs := 200, 10
	persons := make([]graph.NodeID, numPersons)
	for i := range persons {
		gender := "male"
		if rng.Float64() < 0.4 {
			gender = "female"
		}
		title := "Engineer"
		if i%4 == 0 {
			title = "Director"
		}
		persons[i] = g.AddNode("Person", map[string]graph.Value{
			"gender":     graph.Str(gender),
			"title":      graph.Str(title),
			"yearsOfExp": graph.Int(int64(rng.Intn(20))),
		})
	}
	orgs := make([]graph.NodeID, numOrgs)
	for i := range orgs {
		orgs[i] = g.AddNode("Org", map[string]graph.Value{
			"employees": graph.Int(int64(10 + rng.Intn(5000))),
		})
	}
	for _, p := range persons {
		if err := g.AddEdge(p, orgs[rng.Intn(numOrgs)], "worksAt"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < numPersons*5; i++ {
		from := persons[rng.Intn(numPersons)]
		to := persons[rng.Intn(numPersons)]
		if from != to {
			if err := g.AddEdge(from, to, "recommend"); err != nil {
				t.Fatal(err)
			}
		}
	}
	g.Freeze()
	return g
}

const testTemplate = `
template talent
node u_o Person title = "Director"
node u1 Person yearsOfExp >= $x1
node o Org employees >= $x2
edge u1 u_o recommend ?e1
edge u1 o worksAt
output u_o
`

func testPayload() JobPayload {
	return JobPayload{
		Template:  testTemplate,
		Groups:    GroupsPayload{Label: "Person", Attr: "gender", Cover: 3},
		Eps:       0.3,
		MaxDomain: 5,
	}
}

// refResult runs the job single-process; the distributed path must match
// its archive at box granularity.
func refResult(t *testing.T, p JobPayload, g *graph.Graph) *core.Result {
	t.Helper()
	cfg, err := BuildConfig(p, g)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := core.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.ParQGen(4)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// slabSum runs every slab of the job's plan in this process, a fresh
// runner each, and sums the private counters, as coldStats reads them.
func slabSum(t *testing.T, p JobPayload, g *graph.Graph) core.Stats {
	t.Helper()
	cfg, err := BuildConfig(p, g)
	if err != nil {
		t.Fatal(err)
	}
	var sum core.Stats
	plan := core.PlanSlabs(cfg.Template)
	for _, level := range plan.Levels {
		runner, err := core.NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runner.RunSlab(plan.SplitVar, level)
		if err != nil {
			t.Fatal(err)
		}
		sum.Add(res.Stats)
	}
	return coldStats(sum)
}

func boxSetOf(points []pareto.Point, eps float64) map[pareto.Box]bool {
	set := make(map[pareto.Box]bool, len(points))
	for _, p := range points {
		set[pareto.BoxOf(p, eps)] = true
	}
	return set
}

// assertMatchesReference checks the distributed archive against the
// single-process one: identical box sets and mutual ε-domination.
func assertMatchesReference(t *testing.T, dist *DistResult, ref *core.Result, eps float64) {
	t.Helper()
	distPoints := make([]pareto.Point, len(dist.Entries))
	for i, e := range dist.Entries {
		distPoints[i] = e.Point()
	}
	if got, want := boxSetOf(distPoints, eps), boxSetOf(ref.Points(), eps); !reflect.DeepEqual(got, want) {
		t.Errorf("distributed box set %v != single-process box set %v", got, want)
	}
	if em := pareto.MinEps(distPoints, ref.Points()); em > eps+1e-9 {
		t.Errorf("distributed set does not ε-dominate reference: ε_m = %v", em)
	}
	if em := pareto.MinEps(ref.Points(), distPoints); em > eps+1e-9 {
		t.Errorf("reference set does not ε-dominate distributed set: ε_m = %v", em)
	}
}

func newTestWorker(t *testing.T) (*Worker, *httptest.Server) {
	t.Helper()
	w := NewWorker(WorkerOptions{})
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)
	return w, srv
}

func newTestCoordinator(t *testing.T, opts CoordinatorOptions) *Coordinator {
	t.Helper()
	if opts.SlabTimeout == 0 {
		opts.SlabTimeout = 30 * time.Second
	}
	if opts.RetryBase == 0 {
		opts.RetryBase = 5 * time.Millisecond
	}
	if opts.HealthInterval == 0 {
		opts.HealthInterval = 50 * time.Millisecond
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	c, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestNormalizeWorkerURL(t *testing.T) {
	for raw, want := range map[string]string{
		"localhost:9001":        "http://localhost:9001",
		"http://h:1/":           "http://h:1",
		" https://w.example:8 ": "https://w.example:8",
		"127.0.0.1:7000":        "http://127.0.0.1:7000",
	} {
		got, err := normalizeWorkerURL(raw)
		if err != nil || got != want {
			t.Errorf("normalize(%q) = %q, %v; want %q", raw, got, err, want)
		}
	}
	if _, err := normalizeWorkerURL("  "); err == nil {
		t.Error("blank worker address accepted")
	}
	if _, err := NewCoordinator(CoordinatorOptions{}); err == nil {
		t.Error("coordinator with no workers accepted")
	}
	if _, err := NewCoordinator(CoordinatorOptions{Workers: []string{"h:1", "http://h:1/"}}); err == nil {
		t.Error("duplicate workers accepted")
	}
}

// TestRendezvousDeterminism: the placement ranking is a pure function of
// the fleet and graph name — two coordinator incarnations agree — and
// different graphs spread over the fleet.
func TestRendezvousDeterminism(t *testing.T) {
	fleet := []string{"h0:1", "h1:1", "h2:1", "h3:1"}
	c1 := newTestCoordinator(t, CoordinatorOptions{Workers: fleet})
	c2 := newTestCoordinator(t, CoordinatorOptions{Workers: fleet})
	first := make(map[string]bool)
	for i := 0; i < 32; i++ {
		name := fmt.Sprintf("graph-%d", i)
		r1, r2 := c1.rankWorkers(name), c2.rankWorkers(name)
		for j := range r1 {
			if r1[j].url != r2[j].url {
				t.Fatalf("graph %s: rankings diverge at %d: %s vs %s", name, j, r1[j].url, r2[j].url)
			}
		}
		first[r1[0].url] = true
	}
	if len(first) < 3 {
		t.Errorf("32 graphs landed on only %d of 4 workers — rendezvous not spreading", len(first))
	}
}

// TestWorkerProtocol drives the worker HTTP surface end to end: inventory,
// 412 before push, CRC-checked snapshot push, slab execution, CRC pinning.
func TestWorkerProtocol(t *testing.T) {
	g := testGraph(t, 7)
	_, srv := newTestWorker(t)
	client := srv.Client()

	// Empty inventory.
	resp, err := client.Get(srv.URL + PathGraphs)
	if err != nil {
		t.Fatal(err)
	}
	var inv GraphsResponse
	if err := json.NewDecoder(resp.Body).Decode(&inv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(inv.Graphs) != 0 {
		t.Fatalf("fresh worker has graphs %v", inv.Graphs)
	}

	var snap bytes.Buffer
	if err := graph.WriteSnapshot(&snap, g); err != nil {
		t.Fatal(err)
	}
	crc, err := SnapshotCRC(g)
	if err != nil {
		t.Fatal(err)
	}

	// Slab against an unregistered graph → 412.
	slabReq, _ := json.Marshal(SlabRequest{Graph: "net", GraphCRC: crc, Job: testPayload(), SplitVar: -1, Level: 0})
	resp, err = client.Post(srv.URL+PathSlab, "application/json", bytes.NewReader(slabReq))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("slab before push: status %d, want 412", resp.StatusCode)
	}

	// Push with a wrong CRC claim → 400.
	req, _ := http.NewRequest(http.MethodPut, srv.URL+PathGraphs+"/net?crc=deadbeef", bytes.NewReader(snap.Bytes()))
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("push with bad crc: status %d, want 400", resp.StatusCode)
	}

	// Proper push → 201, inventory shows the content address.
	req, _ = http.NewRequest(http.MethodPut, fmt.Sprintf("%s%s/net?crc=%08x", srv.URL, PathGraphs, crc), bytes.NewReader(snap.Bytes()))
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("push: status %d, want 201", resp.StatusCode)
	}
	resp, err = client.Get(srv.URL + PathGraphs)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&inv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if inv.Graphs["net"] != crc {
		t.Fatalf("inventory %v, want net@%08x", inv.Graphs, crc)
	}

	// Slab with a mismatched pin → 412 (the worker holds a different version).
	badPin, _ := json.Marshal(SlabRequest{Graph: "net", GraphCRC: crc + 1, Job: testPayload(), SplitVar: -1, Level: 0})
	resp, err = client.Post(srv.URL+PathSlab, "application/json", bytes.NewReader(badPin))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("slab with wrong pin: status %d, want 412", resp.StatusCode)
	}

	// A real slab executes and answers entries + stats; the request ID is
	// echoed back.
	cfg, err := BuildConfig(testPayload(), g)
	if err != nil {
		t.Fatal(err)
	}
	plan := core.PlanSlabs(cfg.Template)
	total := 0
	for _, level := range plan.Levels {
		body, _ := json.Marshal(SlabRequest{Graph: "net", GraphCRC: crc, Job: testPayload(), SplitVar: plan.SplitVar, Level: level})
		req, _ := http.NewRequest(http.MethodPost, srv.URL+PathSlab, bytes.NewReader(body))
		req.Header.Set(requestIDHeader, "test-req/s0/a1")
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("slab level %d: status %d", level, resp.StatusCode)
		}
		if got := resp.Header.Get(requestIDHeader); got != "test-req/s0/a1" {
			t.Fatalf("request ID not echoed: %q", got)
		}
		var out SlabResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		total += len(out.Entries)
		if out.Stats.Verified == 0 {
			t.Fatalf("slab level %d verified nothing", level)
		}
	}
	if total == 0 {
		t.Fatal("no slab produced entries")
	}
}

// TestCoordinatorEquivalence: a distributed run over two in-process
// workers reports every slab, presents its entries by diversity and pushes
// each snapshot at most once per worker. (That its entries are the
// single-process par run's and its counters the slabs' sum is the
// equivalence generator's distributed axis, internal/match.)
func TestCoordinatorEquivalence(t *testing.T) {
	g := testGraph(t, 11)
	wa, sa := newTestWorker(t)
	wb, sb := newTestWorker(t)
	c := newTestCoordinator(t, CoordinatorOptions{Workers: []string{sa.URL, sb.URL}, Replicas: 2})

	p := testPayload()
	var slabsSeen atomic.Int64
	res, err := c.RunJob(context.Background(), JobRequest{
		Graph: "net", G: g, Payload: p, RequestID: "j000001",
		OnSlab: func(done, total int, worker string) {
			slabsSeen.Add(1)
			if worker == "" {
				t.Error("OnSlab without worker attribution")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if int(slabsSeen.Load()) != res.Slabs {
		t.Errorf("OnSlab fired %d times for %d slabs", slabsSeen.Load(), res.Slabs)
	}
	// Entries are presented like the single-process result: diversity
	// descending.
	for i := 1; i < len(res.Entries); i++ {
		if res.Entries[i].Div > res.Entries[i-1].Div {
			t.Errorf("entries not sorted by diversity: %v before %v", res.Entries[i-1], res.Entries[i])
		}
	}

	// Both workers participated and each received the snapshot exactly once.
	if wa.snapshotsIn.Load()+wb.snapshotsIn.Load() != 2 {
		t.Errorf("snapshot pushes: worker A %d, worker B %d; want one each", wa.snapshotsIn.Load(), wb.snapshotsIn.Load())
	}
	if wa.slabsRun.Load() == 0 || wb.slabsRun.Load() == 0 {
		t.Errorf("slab spread: A ran %d, B ran %d; want both > 0", wa.slabsRun.Load(), wb.slabsRun.Load())
	}

	// A second job on the same graph re-pushes nothing: the content
	// address matches the workers' inventories.
	if _, err := c.RunJob(context.Background(), JobRequest{Graph: "net", G: g, Payload: p, RequestID: "j000002"}); err != nil {
		t.Fatal(err)
	}
	if wa.snapshotsIn.Load()+wb.snapshotsIn.Load() != 2 {
		t.Errorf("second job re-pushed snapshots: A %d, B %d", wa.snapshotsIn.Load(), wb.snapshotsIn.Load())
	}

	m := c.MetricsSnapshot()
	if m["liveWorkers"].(int) != 2 {
		t.Errorf("liveWorkers %v, want 2", m["liveWorkers"])
	}
	if m["jobsDistributed"].(int64) != 2 {
		t.Errorf("jobsDistributed %v, want 2", m["jobsDistributed"])
	}
}

// TestCoordinatorCarriesEveryCounter: what the workers' stores answered and
// the phase clocks cross the wire too. (That the other counters are the
// in-process sum of RunSlab over the same plan is the equivalence
// generator's distributed axis, internal/match.)
func TestCoordinatorCarriesEveryCounter(t *testing.T) {
	g := testGraph(t, 11)
	_, sa := newTestWorker(t)
	_, sb := newTestWorker(t)
	c := newTestCoordinator(t, CoordinatorOptions{Workers: []string{sa.URL, sb.URL}, Replicas: 2})
	res, err := c.RunJob(context.Background(), JobRequest{Graph: "net", G: g, Payload: testPayload(), RequestID: "j-counters"})
	if err != nil {
		t.Fatal(err)
	}
	// What a slab found in its worker's store depends on the slabs that
	// engine served before it, not on the plan: carried, but not the sum's.
	if res.Stats.AnswersReused == 0 || res.Stats.DerivedReused == 0 {
		t.Errorf("slabs sharing two worker engines reused nothing: %+v", res.Stats)
	}
	if w := res.Stats.Wall; w[core.PhaseScore] <= 0 || w[core.PhaseCover] <= 0 || w[core.PhaseDerive] <= 0 || w[core.PhaseUpdate] <= 0 {
		t.Errorf("the scoring, coverage, derive and update clocks did not cross the wire: %+v", res.Stats)
	}
}

// TestBuildConfigOnKeepsSpecsApart: group specs that differ only in where
// their value strings are cut — none, one empty, one holding a NUL, two — are
// taken from the job spec unvalidated, and each gets from a shared engine
// exactly what it gets from the graph alone, whichever the engine served
// first: none is answered with another's partition.
func TestBuildConfigOnKeepsSpecsApart(t *testing.T) {
	g := testGraph(t, 1)
	specs := [][]string{nil, {""}, {"male\x00female"}, {"male", "female"}, {"male"}}
	outcome := func(values []string, e *match.Engine) string {
		p := testPayload()
		p.Groups.Values = values
		cfg, err := BuildConfig(p, g)
		if e != nil {
			cfg, err = BuildConfigOn(p, e)
		}
		if err != nil {
			return err.Error()
		}
		var names []string
		for _, grp := range cfg.Groups {
			names = append(names, fmt.Sprintf("%s:%d/%d", grp.Name, grp.Want, grp.Size()))
		}
		return fmt.Sprint(names)
	}
	if all, none, two := outcome(nil, nil), outcome([]string{""}, nil), outcome(specs[3], nil); all == none || all == two || none == two {
		t.Fatalf("the specs no longer differ cold: %q, %q, %q", all, none, two)
	}
	for first := range specs {
		e := match.NewEngine(g, match.EngineOptions{})
		for k := range specs {
			values := specs[(first+k)%len(specs)]
			if got, want := outcome(values, e), outcome(values, nil); got != want {
				t.Errorf("values %q after %q on a shared engine: %s, cold: %s", values, specs[first], got, want)
			}
		}
		// Again, now each from the store.
		for _, values := range specs {
			if got, want := outcome(values, e), outcome(values, nil); got != want {
				t.Errorf("values %q from the store: %s, cold: %s", values, got, want)
			}
		}
		if st := e.Stats().Shared; st.Entries != len(specs) || st.Hits != int64(len(specs)) {
			t.Errorf("%d specs left %+v", len(specs), st)
		}
	}
}

// TestCoordinatorPreloadedWorker: a worker that already holds the graph
// (daemon -graph preload) is never pushed to — the coordinator trusts the
// content address in the worker's inventory.
func TestCoordinatorPreloadedWorker(t *testing.T) {
	g := testGraph(t, 13)
	w, srv := newTestWorker(t)
	if err := w.RegisterGraph("net", g); err != nil {
		t.Fatal(err)
	}
	c := newTestCoordinator(t, CoordinatorOptions{Workers: []string{srv.URL}})
	res, err := c.RunJob(context.Background(), JobRequest{Graph: "net", G: g, Payload: testPayload(), RequestID: "j1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) == 0 {
		t.Fatal("empty distributed result")
	}
	if w.snapshotsIn.Load() != 0 {
		t.Errorf("coordinator pushed %d snapshots to a preloaded worker", w.snapshotsIn.Load())
	}
	if c.pushes.Load() != 0 {
		t.Errorf("coordinator counted %d pushes", c.pushes.Load())
	}
}

// coldStats is s without the counters of what a worker engine's store had,
// and without the phase clocks, which no two runs read the same.
func coldStats(s core.Stats) core.Stats {
	s.AnswersReused, s.DerivedReused = 0, 0
	clear(s.Wall[:])
	return s
}

// killableWorker lets a bounded number of slab requests through, then
// simulates the worker process dying: every later connection — slabs and
// health checks alike — is hijacked and dropped.
type killableWorker struct {
	inner http.Handler
	slabs atomic.Int64
	dead  atomic.Bool
}

func (k *killableWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == PathSlab && k.slabs.Add(1) > 1 {
		k.dead.Store(true)
	}
	if k.dead.Load() {
		hj, ok := w.(http.Hijacker)
		if !ok {
			panic("test server must support hijack")
		}
		conn, _, err := hj.Hijack()
		if err == nil {
			conn.Close()
		}
		return
	}
	k.inner.ServeHTTP(w, r)
}

// TestCoordinatorFailover kills one of two workers after its first slab
// request: the job must complete via failover, with the slabs that died
// re-run on the survivor, and the merged archive must still match the
// single-process reference — no lost and no double-counted slabs.
func TestCoordinatorFailover(t *testing.T) {
	g := testGraph(t, 17)
	wa := NewWorker(WorkerOptions{})
	ka := &killableWorker{inner: wa.Handler()}
	sa := httptest.NewServer(ka)
	defer sa.Close()
	wb, sb := newTestWorker(t)
	c := newTestCoordinator(t, CoordinatorOptions{
		Workers: []string{sa.URL, sb.URL}, Replicas: 2,
		SlabRetries: 5,
	})

	p := testPayload()
	res, err := c.RunJob(context.Background(), JobRequest{
		Graph: "net", G: g, Payload: p, RequestID: "j-failover",
	})
	if err != nil {
		t.Fatalf("job did not survive worker death: %v", err)
	}
	ref := refResult(t, p, g)
	assertMatchesReference(t, res, ref, res.Eps)
	if got, want := coldStats(res.Stats), slabSum(t, p, g); got != want {
		t.Errorf("failover lost or duplicated slabs: stats %+v vs in-process slab sum %+v", got, want)
	}
	if wb.slabsRun.Load() == 0 {
		t.Error("survivor ran no slabs")
	}
	if !ka.dead.Load() {
		t.Fatal("doomed worker was never asked for a second slab; test exercised nothing")
	}
	if res.Retried == 0 {
		t.Error("worker died mid-job but no slab was retried")
	}
	if c.LiveWorkers() != 1 {
		t.Errorf("live workers %d after death, want 1", c.LiveWorkers())
	}
}

// TestCoordinatorWorkerRestart: a worker that loses its state (process
// restart) answers 412 on the next slab; the coordinator re-pushes inline
// and the job still succeeds.
func TestCoordinatorWorkerRestart(t *testing.T) {
	g := testGraph(t, 19)
	var cur atomic.Pointer[Worker]
	cur.Store(NewWorker(WorkerOptions{}))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur.Load().Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()
	c := newTestCoordinator(t, CoordinatorOptions{Workers: []string{srv.URL}})

	p := testPayload()
	if _, err := c.RunJob(context.Background(), JobRequest{Graph: "net", G: g, Payload: p, RequestID: "j1"}); err != nil {
		t.Fatal(err)
	}
	// "Restart" the worker: fresh state behind the same address. The
	// coordinator's push record now lies.
	cur.Store(NewWorker(WorkerOptions{}))
	res, err := c.RunJob(context.Background(), JobRequest{Graph: "net", G: g, Payload: p, RequestID: "j2"})
	if err != nil {
		t.Fatalf("job after worker restart: %v", err)
	}
	assertMatchesReference(t, res, refResult(t, p, g), res.Eps)
	if cur.Load().snapshotsIn.Load() != 1 {
		t.Errorf("restarted worker received %d pushes, want exactly 1", cur.Load().snapshotsIn.Load())
	}
}

// TestCoordinatorAllWorkersDead: with every worker unreachable the job
// fails with a useful error instead of hanging.
func TestCoordinatorAllWorkersDead(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close() // nothing listens anymore
	c := newTestCoordinator(t, CoordinatorOptions{
		Workers: []string{url}, SlabRetries: 2, RetryBase: time.Millisecond,
	})
	g := testGraph(t, 23)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := c.RunJob(ctx, JobRequest{Graph: "net", G: g, Payload: testPayload(), RequestID: "j1"})
	if err == nil {
		t.Fatal("job against a dead fleet succeeded")
	}
	if c.LiveWorkers() != 0 {
		t.Errorf("live workers %d, want 0", c.LiveWorkers())
	}
}

// TestCoordinatorHealthRevival: a worker that comes back is revived by
// the /readyz sweep and serves jobs again.
func TestCoordinatorHealthRevival(t *testing.T) {
	w, srv := newTestWorker(t)
	_ = w
	c := newTestCoordinator(t, CoordinatorOptions{Workers: []string{srv.URL}, HealthInterval: 20 * time.Millisecond})
	c.workers[0].alive.Store(false) // simulate a transport error verdict
	deadline := time.Now().Add(5 * time.Second)
	for c.LiveWorkers() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if c.LiveWorkers() != 1 {
		t.Fatal("health sweep never revived a reachable worker")
	}
}

// TestBuildConfigValidation: the shared spec→config path rejects broken
// payloads with useful errors.
func TestBuildConfigValidation(t *testing.T) {
	g := testGraph(t, 29)
	cases := []struct {
		name string
		mut  func(*JobPayload)
	}{
		{"no template", func(p *JobPayload) { p.Template = "" }},
		{"bad template", func(p *JobPayload) { p.Template = "template x\nnode" }},
		{"no groups", func(p *JobPayload) { p.Groups = GroupsPayload{} }},
		{"unknown attr", func(p *JobPayload) { p.Groups.Attr = "nope" }},
		{"bad lambda", func(p *JobPayload) { l := 2.0; p.Lambda = &l }},
		{"negative eps", func(p *JobPayload) { p.Eps = -1 }},
	}
	for _, tc := range cases {
		p := testPayload()
		tc.mut(&p)
		if _, err := BuildConfig(p, g); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The happy path binds ladders deterministically: two independent
	// builds agree on every ladder.
	a, err := BuildConfig(testPayload(), g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildConfig(testPayload(), g)
	if err != nil {
		t.Fatal(err)
	}
	for vi := range a.Template.Vars {
		if !reflect.DeepEqual(a.Template.Vars[vi].Ladder, b.Template.Vars[vi].Ladder) {
			t.Fatalf("var %d: ladders diverge between builds", vi)
		}
	}
}

// TestHistogramSnapshot: the one /metrics histogram shape — cumulative "le"
// counts over the bounds given at construction, "+Inf" equal to the count
// (observations past the last bound included) and the sum under "sumMs".
func TestHistogramSnapshot(t *testing.T) {
	h := NewHistogram([]float64{1, 10})
	for _, ms := range []float64{0.5, 1, 7, 10.5, 99} {
		h.Observe(ms)
	}
	want := map[string]any{
		"count": int64(5),
		"sumMs": 118.0,
		"le":    map[string]int64{"1": 2, "10": 3, "+Inf": 5},
	}
	if got := h.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot %v, want %v", got, want)
	}
}
