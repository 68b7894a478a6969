package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fairsqg/internal/cluster"
	"fairsqg/internal/graph"
)

// testGraph mirrors the core package's professional-network fixture:
// persons with gender/experience, orgs, recommend/worksAt edges. Small
// enough that the bi algorithm finishes in milliseconds.
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

func testSpec(graphName string) JobSpec {
	return JobSpec{
		Graph:     graphName,
		Algorithm: "bi",
		Template:  testTemplate,
		Groups: GroupsSpec{
			Label: "Person", Attr: "gender", Cover: 3,
		},
		Eps:           0.3,
		MaxDomain:     5,
		ProgressEvery: 1,
	}
}

// tinySpec is a spec that validates against tinyGraph: no range
// variables, so no ladder binding is needed.
func tinySpec(graphName string) JobSpec {
	return JobSpec{
		Graph:     graphName,
		Algorithm: "enum",
		Template: `
template mini
node u_o Person
node u1 Person
edge u1 u_o knows
output u_o
`,
		Groups: GroupsSpec{Label: "Person", Attr: "gender", Cover: 1},
		Eps:    0.3,
	}
}

// newTestServer spins up a Server behind httptest with fast job-manager
// settings.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Jobs.Workers == 0 {
		opts.Jobs.Workers = 2
	}
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := contextWithTimeout(5 * time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

func doJSON(t *testing.T, method, url string, body io.Reader, wantCode int, out any) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("%s %s = %d, want %d; body: %s", method, url, resp.StatusCode, wantCode, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, raw, err)
		}
	}
}

func uploadGraph(t *testing.T, baseURL, name string, g *graph.Graph) {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteTSV(&buf, g); err != nil {
		t.Fatal(err)
	}
	var info GraphInfo
	doJSON(t, http.MethodPut, baseURL+"/v1/graphs/"+name+"?format=tsv", &buf, http.StatusCreated, &info)
	if info.Nodes != g.NumNodes() || info.Edges != g.NumEdges() {
		t.Fatalf("uploaded graph info %d/%d, want %d/%d", info.Nodes, info.Edges, g.NumNodes(), g.NumEdges())
	}
}

func submitJob(t *testing.T, baseURL string, spec JobSpec) JobStatus {
	t.Helper()
	body, _ := json.Marshal(spec)
	var st JobStatus
	doJSON(t, http.MethodPost, baseURL+"/v1/jobs", bytes.NewReader(body), http.StatusAccepted, &st)
	return st
}

func pollDone(t *testing.T, baseURL, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		doJSON(t, http.MethodGet, baseURL+"/v1/jobs/"+id, nil, http.StatusOK, &st)
		if st.State.terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobStatus{}
}

// TestEndToEnd uploads a graph, submits a bi job, streams its progress,
// fetches the result and checks it is identical to the same configuration
// run directly through the library.
func TestEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	g := testGraph(t, 7)
	uploadGraph(t, ts.URL, "talent", g)

	spec := testSpec("talent")
	st := submitJob(t, ts.URL, spec)
	// A fast job can be done before the submit response is rendered.
	if st.State != JobQueued && st.State != JobRunning && st.State != JobDone {
		t.Fatalf("submitted job state = %s", st.State)
	}

	// Stream the NDJSON events until the server closes the stream; the
	// last line must be a terminal state event.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events Content-Type = %q", ct)
	}
	var events []JobEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev JobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if len(events) == 0 {
		t.Fatal("no events streamed")
	}
	last := events[len(events)-1]
	if last.Type != "state" || last.State != string(JobDone) {
		t.Fatalf("last event = %+v, want done state", last)
	}
	sawProgress := false
	for i, ev := range events {
		if i > 0 && ev.Seq <= events[i-1].Seq {
			t.Fatalf("event seq not increasing: %d then %d", events[i-1].Seq, ev.Seq)
		}
		if ev.Type == "progress" {
			sawProgress = true
		}
	}
	if !sawProgress {
		t.Fatal("stream carried no progress events")
	}

	final := pollDone(t, ts.URL, st.ID)
	if final.State != JobDone {
		t.Fatalf("job state = %s (%s), want done", final.State, final.Error)
	}
	var got JobResult
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/result", nil, http.StatusOK, &got)
	if len(got.Queries) == 0 {
		t.Fatal("empty result set")
	}
	if final.Queries != len(got.Queries) {
		t.Fatalf("status reports %d queries, result has %d", final.Queries, len(got.Queries))
	}

	// The same configuration through the library, on a fresh graph and
	// with the plain sequential matcher, must produce the identical set.
	want := directRun(t, spec)
	if len(want.Queries) != len(got.Queries) {
		t.Fatalf("server returned %d queries, library %d", len(got.Queries), len(want.Queries))
	}
	for i := range want.Queries {
		w, s := want.Queries[i], got.Queries[i]
		if w.Text != s.Text || w.Diversity != s.Diversity || w.Coverage != s.Coverage || w.Answers != s.Answers {
			t.Fatalf("query %d differs:\nserver : %+v\nlibrary: %+v", i, s, w)
		}
		if fmt.Sprint(w.Bindings) != fmt.Sprint(s.Bindings) {
			t.Fatalf("query %d bindings differ: %v vs %v", i, s.Bindings, w.Bindings)
		}
	}

	// A second identical job reuses the graph's warm candidate cache;
	// /metrics must show the hit counter climbing.
	hitsBefore, _ := cacheCounts(t, ts.URL)
	st2 := submitJob(t, ts.URL, spec)
	if f := pollDone(t, ts.URL, st2.ID); f.State != JobDone {
		t.Fatalf("second job state = %s (%s)", f.State, f.Error)
	}
	hitsAfter, _ := cacheCounts(t, ts.URL)
	if hitsAfter <= hitsBefore {
		t.Fatalf("candidate cache hits did not increase across identical jobs: %d -> %d", hitsBefore, hitsAfter)
	}

	// A par job's result carries the matcher's access-path split and
	// signature pruning wherever the same request under rf does; an enum job
	// — inheriting down its enumeration prefixes — no less.
	for _, alg := range []string{"rf", "par", "enum"} {
		spec.Algorithm = alg
		st := submitJob(t, ts.URL, spec)
		if f := pollDone(t, ts.URL, st.ID); f.State != JobDone {
			t.Fatalf("%s job state = %s (%s)", alg, f.State, f.Error)
		}
		var res JobResult
		doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/result", nil, http.StatusOK, &res)
		if m := res.Stats.Matcher; m.IndexSelections+m.ScanSelections == 0 || m.SigPruned == 0 || m.ArcsRevised == 0 {
			t.Errorf("%s job lost matcher counters: %+v", alg, m)
		}
	}
	// An enum job cut off by its deadline, wherever in the lattice that
	// lands, gives its buffers back like one that finished.
	spec.Algorithm, spec.TimeoutMs = "enum", 1
	if f := pollDone(t, ts.URL, submitJob(t, ts.URL, spec).ID); f.State == JobDone {
		t.Log("the 1 ms enum job finished before its deadline")
	}
	// And /metrics renders the propagation counters beside sigPruned (on
	// this template every multi-node plan hangs off a one-node ancestor, so
	// no arc is ever inherited: the key is there and reads 0) — one plan
	// from the label populations per job that got to run — and each graph's
	// engine object carries the held-domains gauge, back at 0 once the walks
	// are over.
	var doc struct {
		Storage struct {
			SigPruned      int  `json:"sigPruned"`
			ArcsRevised    int  `json:"arcsRevised"`
			ArcsInherited  *int `json:"arcsInherited"`
			ScratchPlans   int  `json:"scratchPlans"`
			AnswersShared  int  `json:"answersShared"`
			AncestorsFound int  `json:"ancestorsFound"`
			ScoreSplits    *int `json:"scoreSplits"`
		} `json:"storage"`
		Graphs map[string]struct {
			Engine struct{ DomainsHeld *int } `json:"engine"`
		} `json:"graphs"`
	}
	doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, http.StatusOK, &doc)
	if st := doc.Storage; st.SigPruned == 0 || st.ArcsRevised == 0 || st.ArcsInherited == nil || st.ScratchPlans < 5 || st.ScratchPlans > 6 {
		t.Errorf("/metrics storage counters after bi, bi, rf, par, enum and a cut-off enum job: %+v", st)
	}
	// The run-side inheritance counters of the done jobs are summed beside
	// them: the bi jobs' backward sweeps took their parents from the memo.
	if st := doc.Storage; st.AnswersShared == 0 || st.AncestorsFound == 0 {
		t.Errorf("/metrics run-side inheritance counters after bi, bi, rf, par, enum: %+v", st)
	}
	// Split scoring is summed beside them.
	if doc.Storage.ScoreSplits == nil {
		t.Error("/metrics storage has no scoreSplits")
	}
	for name, gr := range doc.Graphs {
		if n := gr.Engine.DomainsHeld; n == nil || *n != 0 {
			t.Errorf("/metrics graphs.%s.engine.DomainsHeld with no job running: %v", name, n)
		}
	}
	if len(doc.Graphs) == 0 {
		t.Error("/metrics lists no graph")
	}
}

// directRun executes the spec's configuration through the library with no
// server, no shared engine and the sequential reference matcher.
func directRun(t *testing.T, spec JobSpec) *JobResult {
	t.Helper()
	g := testGraph(t, 7)
	cfg, err := cluster.BuildConfig(specPayload(&spec), g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runSpec(&spec, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// cacheCounts scrapes the aggregate candidate-cache hit and miss counters
// off /metrics.
func cacheCounts(t *testing.T, baseURL string) (hits, misses int64) {
	t.Helper()
	var doc struct {
		Cache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
	}
	doJSON(t, http.MethodGet, baseURL+"/metrics", nil, http.StatusOK, &doc)
	return doc.Cache.Hits, doc.Cache.Misses
}

func TestHTTPErrorPaths(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxUploadBytes: 512})

	// Ready before any graph exists: graphs arrive by upload.
	doJSON(t, http.MethodGet, ts.URL+"/readyz", nil, http.StatusOK, nil)
	doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, http.StatusOK, nil)

	// Upload larger than the cap -> 413 (comment lines parse fine, so
	// the reader runs into the byte limit rather than a syntax error).
	big := strings.NewReader(strings.Repeat("# padding\n", 200))
	doJSON(t, http.MethodPut, ts.URL+"/v1/graphs/big?format=tsv", big, http.StatusRequestEntityTooLarge, nil)

	g := tinyGraph(t)
	uploadSmall := func(name string) {
		var buf bytes.Buffer
		if err := graph.WriteTSV(&buf, g); err != nil {
			t.Fatal(err)
		}
		doJSON(t, http.MethodPut, ts.URL+"/v1/graphs/"+name+"?format=tsv", &buf, http.StatusCreated, nil)
	}
	uploadSmall("tiny")
	doJSON(t, http.MethodGet, ts.URL+"/readyz", nil, http.StatusOK, nil)

	// Duplicate name -> 409; bad format -> 400; missing graph -> 404.
	var buf bytes.Buffer
	if err := graph.WriteTSV(&buf, g); err != nil {
		t.Fatal(err)
	}
	doJSON(t, http.MethodPut, ts.URL+"/v1/graphs/tiny?format=tsv", &buf, http.StatusConflict, nil)
	doJSON(t, http.MethodPut, ts.URL+"/v1/graphs/x?format=xml", strings.NewReader("z"), http.StatusBadRequest, nil)
	// Statuses follow the error's type, not its text: a parse error and a
	// validation error that quote the registry's words stay 400 and 422.
	var quoted apiError
	doJSON(t, http.MethodPut, ts.URL+"/v1/graphs/y?format=tsv", strings.NewReader("N\talready registered\tPerson\n"), http.StatusBadRequest, &quoted)
	if !strings.Contains(quoted.Error, "already registered") {
		t.Fatalf("parse error does not quote the bad field: %q", quoted.Error)
	}
	doJSON(t, http.MethodPost, ts.URL+"/v1/graphs/tiny/mutate",
		strings.NewReader(`[{"op":"removeEdge","from":0,"to":1,"label":"not registered"}]`), http.StatusUnprocessableEntity, &quoted)
	if !strings.Contains(quoted.Error, "not registered") {
		t.Fatalf("validation error does not quote the label: %q", quoted.Error)
	}
	doJSON(t, http.MethodGet, ts.URL+"/v1/graphs/nope", nil, http.StatusNotFound, nil)

	// Jobs: malformed body, unknown graph, unknown algorithm.
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader("{nope"), http.StatusBadRequest, nil)
	spec := testSpec("nope")
	body, _ := json.Marshal(spec)
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body), http.StatusNotFound, nil)
	spec = testSpec("tiny")
	spec.Algorithm = "quantum"
	body, _ = json.Marshal(spec)
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body), http.StatusBadRequest, nil)

	// Unknown job -> 404 everywhere.
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/j999999", nil, http.StatusNotFound, nil)
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/j999999/result", nil, http.StatusNotFound, nil)
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/j999999/events", nil, http.StatusNotFound, nil)
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/j999999", nil, http.StatusNotFound, nil)

	// A running job's result is 409 until it finishes; DELETE cancels it.
	release := make(chan struct{})
	job, err := s.Jobs().enqueue(nil, nil, blockRun(release), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s.Jobs(), job.ID, JobRunning)
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+job.ID+"/result", nil, http.StatusConflict, nil)
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+job.ID, nil, http.StatusOK, nil)
	waitState(t, s.Jobs(), job.ID, JobCancelled)
	close(release)

	// Queue shedding surfaces as 429 with Retry-After.
	s2, ts2 := newTestServer(t, Options{Jobs: ManagerOptions{Workers: 1, QueueDepth: 1}})
	uploadTo := func(ts *httptest.Server) {
		var b bytes.Buffer
		if err := graph.WriteTSV(&b, g); err != nil {
			t.Fatal(err)
		}
		doJSON(t, http.MethodPut, ts.URL+"/v1/graphs/tiny?format=tsv", &b, http.StatusCreated, nil)
	}
	uploadTo(ts2)
	rel2 := make(chan struct{})
	defer close(rel2)
	blocked, err := s2.Jobs().enqueue(nil, nil, blockRun(rel2), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s2.Jobs(), blocked.ID, JobRunning)
	if _, err := s2.Jobs().enqueue(nil, nil, blockRun(rel2), time.Minute); err != nil {
		t.Fatal(err)
	}
	spec2 := tinySpec("tiny")
	body2, _ := json.Marshal(spec2)
	req, _ := http.NewRequest(http.MethodPost, ts2.URL+"/v1/jobs", bytes.NewReader(body2))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

func TestServerShutdownDrains(t *testing.T) {
	s, ts := newTestServer(t, Options{Jobs: ManagerOptions{Workers: 1}})
	uploadGraph(t, ts.URL, "tiny", tinyGraph(t))
	job, err := s.Jobs().enqueue(nil, nil, sleepRun(50*time.Millisecond), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s.Jobs(), job.ID, JobRunning)
	ctx, cancel := contextWithTimeout(5 * time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	res, state, _ := s.Jobs().Result(job.ID)
	if state != JobDone || res == nil {
		t.Fatalf("after drain: state=%s res=%v", state, res)
	}
	// Draining server reports not-ready and refuses new jobs with 503.
	doJSON(t, http.MethodGet, ts.URL+"/readyz", nil, http.StatusServiceUnavailable, nil)
	spec := testSpec("tiny")
	spec.Groups = GroupsSpec{Label: "Person", Attr: "gender", Cover: 1}
	body, _ := json.Marshal(spec)
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body), http.StatusServiceUnavailable, nil)
}

func TestMetricsAndVars(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var doc map[string]any
	doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, http.StatusOK, &doc)
	for _, key := range []string{"jobs", "cache", "http", "latencyMs", "graphs"} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("/metrics missing %q: %v", key, doc)
		}
	}
	doJSON(t, http.MethodGet, ts.URL+"/debug/vars", nil, http.StatusOK, &doc)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index = %d", resp.StatusCode)
	}
}
