package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fairsqg/internal/core"
	"fairsqg/internal/graph"
	"fairsqg/internal/match"
	"fairsqg/internal/pareto"
	"fairsqg/internal/server"
)

// serve-jobs runs fairsqgd in process: server.New restores the registry
// from a snapshot directory in mapped mode, a real loopback listener
// serves it, and a closed loop of one client per processor submits jobs,
// follows each job's event stream to its end and fetches the result. One
// warm engine per graph is shared — and contended — by the jobs in flight.

func serveWorkload() *workload {
	return &workload{
		warmup: 1,
		open: func(dir string, in *inputs) (session, error) {
			d, err := startDaemon(dir)
			if err != nil {
				return nil, err
			}
			s := &serveSession{in: in, dir: dir, daemon: d, bodies: make([][]byte, len(in.Ops))}
			for i := range in.Ops {
				if s.bodies[i], err = jobBody(&in.Ops[i]); err != nil {
					d.stop()
					return nil, err
				}
			}
			return s, nil
		},
		setup: func(dir string, in *inputs) (time.Duration, error) {
			t0 := time.Now()
			d, err := startDaemon(dir)
			if err != nil {
				return 0, err
			}
			body, err := jobBody(&in.SetupOp)
			if err != nil {
				d.stop()
				return 0, err
			}
			_, err = d.newClient().runJob(body, nil, 0, 0, nil)
			elapsed := time.Since(t0)
			if stopErr := d.stop(); err == nil {
				err = stopErr
			}
			return elapsed, err
		},
	}
}

// daemon is fairsqgd assembled in process.
type daemon struct {
	srv     *server.Server
	hs      *http.Server
	base    string
	served  chan error
	restore time.Duration
}

func startDaemon(dir string) (*daemon, error) {
	t0 := time.Now()
	srv := server.New(server.Options{
		SnapshotDir: filepath.Join(dir, snapDirName),
		MmapGraphs:  true,
		// A finished job keeps its configuration (group sets included)
		// until retention drops it; clients here fetch results at once, so
		// a short retention keeps resident memory about the jobs in flight
		// and not about how many passes have run.
		Jobs: server.ManagerOptions{Retention: time.Second, GCInterval: 500 * time.Millisecond},
	})
	restore := time.Since(t0)
	stopSrv := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}
	if names := srv.RestoredGraphs(); len(names) != 1 || names[0] != serveGraph {
		stopSrv()
		return nil, fmt.Errorf("server restored %v from %s, want [%s]", names, dir, serveGraph)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		stopSrv()
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), served: make(chan error, 1), restore: restore}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the HTTP server and the job manager, waits for the serve
// goroutine and checks that nothing stayed mapped.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serveErr := <-d.served; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	if sErr := d.srv.Shutdown(ctx); sErr != nil && err == nil {
		err = sErr
	}
	if err != nil {
		return err
	}
	if mapped := nestedNumber(d.srv.MetricsSnapshot(), "storage", "snapshots", "mappedBytes"); mapped != 0 {
		return fmt.Errorf("storage.snapshots.mappedBytes is %v after shutdown, want 0", mapped)
	}
	return nil
}

// nestedNumber walks a metrics document; missing keys read as 0.
func nestedNumber(doc map[string]any, path ...string) float64 {
	var cur any = doc
	for _, k := range path {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0
		}
		cur = m[k]
	}
	switch v := cur.(type) {
	case float64:
		return v
	case int64:
		return float64(v)
	case int:
		return float64(v)
	}
	return 0
}

// jobBody renders a request as the job submission body.
func jobBody(spec *opSpec) ([]byte, error) {
	return json.Marshal(server.JobSpec{
		Graph:         serveGraph,
		Algorithm:     spec.Alg,
		Template:      spec.Text,
		Groups:        server.GroupsSpec{Label: spec.Label, Attr: spec.Attr, Values: spec.Values, Cover: spec.Cover},
		Eps:           spec.Eps,
		MaxDomain:     spec.MaxDomain,
		MaxPairs:      spec.MaxPairs,
		DistanceAttrs: spec.DistAttrs,
	})
}

// client is one closed-loop user with its own connection pool.
type client struct {
	base string
	hc   *http.Client
}

func (d *daemon) newClient() *client {
	return &client{base: d.base, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// get fetches a URL and returns the body of a 200 answer.
func (c *client) get(url string) ([]byte, error) {
	resp, err := c.hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

// runJob submits one job, follows its NDJSON event stream to the terminal
// state and fetches the result: no poll interval sits in the latency.
func (c *client) runJob(body []byte, tr *tracer, op, lane int, lt *layerTrace) (*server.JobResult, error) {
	opSpan := tr.begin(0, op, lane, "op")
	defer tr.end(opSpan)

	sub := tr.begin(opSpan, op, lane, "submit")
	t0 := time.Now()
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(sub)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	if lt != nil {
		lt.sample("server.submit", time.Since(t0))
	}
	var st server.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, err
	}

	evs := tr.begin(opSpan, op, lane, "events")
	resp, err = c.hc.Get(c.base + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		return nil, err
	}
	var last server.JobEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			resp.Body.Close()
			return nil, fmt.Errorf("event stream: %w", err)
		}
	}
	resp.Body.Close()
	tr.end(evs)
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if last.Type != "state" || last.State != string(server.JobDone) {
		return nil, fmt.Errorf("job %s ended %s %s", st.ID, last.State, last.Error)
	}

	res := tr.begin(opSpan, op, lane, "result")
	data, err = c.get(c.base + "/v1/jobs/" + st.ID + "/result")
	tr.end(res)
	if err != nil {
		return nil, err
	}
	jr := new(server.JobResult)
	if err := json.Unmarshal(data, jr); err != nil {
		return nil, err
	}
	if lt != nil {
		total := time.Since(t0)
		lt.sample("server.overhead", total-time.Duration(jr.ElapsedMs*float64(time.Millisecond)))
		lt.sample("server.result_bytes", time.Duration(len(data)))
		// The status document has the queue timestamps; it is fetched
		// after the clock stopped.
		if data, err := c.get(c.base + "/v1/jobs/" + st.ID); err == nil {
			var done server.JobStatus
			if json.Unmarshal(data, &done) == nil && done.Started != nil {
				lt.sample("server.queue_wait", done.Started.Sub(done.Submitted))
			}
		}
	}
	return jr, nil
}

// jobFront reduces a job result to the front the checks compare.
func jobFront(jr *server.JobResult) *front {
	f := &front{eps: jr.Eps, spawned: jr.Stats.Spawned, verified: jr.Stats.Verified, feasible: jr.Stats.Feasible, pruned: jr.Stats.Pruned, stats: jr.Stats}
	for _, q := range jr.Queries {
		f.points = append(f.points, pareto.Point{Div: q.Diversity, Cov: q.Coverage})
	}
	return f
}

type serveSession struct {
	in     *inputs
	dir    string
	daemon *daemon
	bodies [][]byte
	// tracedRun is each job's server-side run time in the traced pass.
	tracedRun []time.Duration
	// own is the benchmark's own mapping of the snapshot, for the direct
	// library runs the results are checked against.
	own *graph.Graph
}

func (s *serveSession) opIDs() []string { return s.in.opIDs() }

func (s *serveSession) ownGraph() (*graph.Graph, error) {
	if s.own == nil {
		g, err := graph.OpenSnapshotMapped(filepath.Join(s.dir, snapDirName, serveGraph+".fsnap"))
		if err != nil {
			return nil, err
		}
		s.own = g
	}
	return s.own, nil
}

// engineStats reads the served graph's cumulative engine counters.
func (s *serveSession) engineStats(c *client) (match.EngineStats, error) {
	var doc struct {
		Graphs map[string]struct {
			Engine match.EngineStats `json:"engine"`
		} `json:"graphs"`
	}
	data, err := c.get(s.daemon.base + "/metrics")
	if err != nil {
		return match.EngineStats{}, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return match.EngineStats{}, err
	}
	return doc.Graphs[serveGraph].Engine, nil
}

func (s *serveSession) runPass(tr *tracer, lt *layerTrace) *passResult {
	n := len(s.in.Ops)
	pr := newPassResult(n)
	clients := runtime.GOMAXPROCS(0)
	var before match.EngineStats
	if tr != nil {
		s.tracedRun = make([]time.Duration, n)
		probe := s.daemon.newClient()
		before, _ = s.engineStats(probe)
		probe.close()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			cl := s.daemon.newClient()
			defer cl.close()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t0 := time.Now()
				jr, err := cl.runJob(s.bodies[i], tr, i, lane, lt)
				d := time.Since(t0)
				if err != nil {
					pr.errs[i] = err
					continue
				}
				f := jobFront(jr)
				pr.lat[i], pr.digest[i] = d, f.digest()
				if tr != nil {
					s.tracedRun[i] = time.Duration(jr.ElapsedMs * float64(time.Millisecond))
					lt.addStats(jr.Stats, false)
				}
			}
		}(c)
	}
	wg.Wait()
	pr.wall = time.Since(start)
	if tr != nil {
		probe := s.daemon.newClient()
		if after, err := s.engineStats(probe); err == nil {
			lt.addMatcher(int(after.Evals-before.Evals), int(after.BacktrackNodes-before.BacktrackNodes),
				int(after.CandidatesChecked-before.CandidatesChecked), int(after.SigPruned-before.SigPruned),
				int(after.IndexSelections-before.IndexSelections), int(after.ScanSelections-before.ScanSelections))
			cache, dist := after.Cache, after.Dist
			cache.Hits -= before.Cache.Hits
			cache.Misses -= before.Cache.Misses
			dist.Evals -= before.Dist.Evals
			dist.Hits -= before.Dist.Hits
			dist.Misses -= before.Dist.Misses
			dist.Clears -= before.Dist.Clears
			lt.addCaches(cache, dist)
		}
		probe.close()
	}
	return pr
}

// verify re-runs every job's request directly through the library, over
// the benchmark's own mapping and with one shared engine as the server
// has, and requires the same boxes and counters. Jobs run inside the
// server, where the benchmark cannot hang a hook; on a traced run these
// library runs record the verification sequences the layers replay (the
// same request verifies the same instances in the same order).
func (s *serveSession) verify(best *passResult, lt *layerTrace) (map[int]error, []error) {
	g, err := s.ownGraph()
	if err != nil {
		return nil, []error{err}
	}
	engine := match.NewEngine(g, match.EngineOptions{})
	perOp := make(map[int]error)
	var mu sync.Mutex
	parallelEach(len(s.in.Ops), runtime.GOMAXPROCS(0), func(i int) {
		if best.digest[i] == "" {
			return
		}
		var hook func(core.VerifyEvent)
		if lt != nil {
			hook = lt.hook(nil, 0, i, 0)
		}
		f, err := runGeneration(g, &s.in.Ops[i], engine, hook)
		if err == nil && f.digest() != best.digest[i] {
			err = fmt.Errorf("job result %q differs from the library's %q", best.digest[i], f.digest())
		}
		if err != nil {
			mu.Lock()
			perOp[i] = err
			mu.Unlock()
		}
	})
	return perOp, nil
}

func (s *serveSession) replay(tr *tracer, lt *layerTrace) {
	lt.set("server.restore_ms", ms(s.daemon.restore))
	doc := s.daemon.srv.MetricsSnapshot()
	lt.set("graph.mapped_mb", nestedNumber(doc, "storage", "snapshots", "mappedBytes")/(1<<20))
	lt.set("server.jobs_shed", nestedNumber(doc, "jobs", "shed"))
	lt.set("server.jobs_failed", nestedNumber(doc, "jobs", "failed"))
	t0 := time.Now()
	g, err := s.ownGraph()
	if err != nil {
		return
	}
	lt.set("graph.open_mapped_ms", ms(time.Since(t0)))
	lt.set("graph.index_mb", float64(g.Memory().IndexBytes)/(1<<20))
	for i := range s.in.Ops {
		lt.replayOp(tr, i, g, &s.in.Ops[i], s.tracedRun[i])
	}
	clusterSection(tr, lt, g, s.in.Ops)
}

func (s *serveSession) close() error {
	var err error
	if s.own != nil {
		err = s.own.Close()
	}
	if stopErr := s.daemon.stop(); err == nil {
		err = stopErr
	}
	return err
}
