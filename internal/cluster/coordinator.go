package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fairsqg/internal/core"
	"fairsqg/internal/graph"
	"fairsqg/internal/pareto"
	"fairsqg/internal/query"
)

// CoordinatorOptions configures a cluster coordinator.
type CoordinatorOptions struct {
	// Workers lists the worker daemons as host:port or full base URLs.
	Workers []string
	// Replicas is how many workers each graph is placed on (rendezvous
	// hashing of graph name over the fleet; default 2, clamped to the
	// fleet size). Extra replicas buy fast failover and read scaling.
	Replicas int
	// MaxInFlight bounds concurrently executing slabs per worker
	// (default 4).
	MaxInFlight int
	// SlabTimeout bounds one slab dispatch attempt (default 60s).
	SlabTimeout time.Duration
	// SlabRetries is the total attempts per slab before the job fails
	// (default 4); attempts back off exponentially from RetryBase
	// (default 100ms) capped at RetryMax (default 5s), with ±50% jitter.
	SlabRetries int
	RetryBase   time.Duration
	RetryMax    time.Duration
	// HealthInterval paces the /readyz sweep that revives dead workers
	// (default 1s). Workers are marked dead immediately on transport
	// errors; the sweep is what brings them back.
	HealthInterval time.Duration
	// Client performs the HTTP calls (default http.DefaultTransport with
	// no overall timeout; per-attempt contexts bound each call).
	Client *http.Client
	// Logger receives placement, retry and failover logs; nil silences.
	Logger Logger
	// Seed fixes the retry jitter for reproducible tests (0 = seeded from
	// the fleet configuration, still deterministic).
	Seed int64
}

func (o *CoordinatorOptions) withDefaults() CoordinatorOptions {
	out := *o
	if out.Replicas <= 0 {
		out.Replicas = 2
	}
	if out.Replicas > len(out.Workers) {
		out.Replicas = len(out.Workers)
	}
	if out.MaxInFlight <= 0 {
		out.MaxInFlight = 4
	}
	if out.SlabTimeout <= 0 {
		out.SlabTimeout = 60 * time.Second
	}
	if out.SlabRetries <= 0 {
		out.SlabRetries = 4
	}
	if out.RetryBase <= 0 {
		out.RetryBase = 100 * time.Millisecond
	}
	if out.RetryMax <= 0 {
		out.RetryMax = 5 * time.Second
	}
	if out.HealthInterval <= 0 {
		out.HealthInterval = time.Second
	}
	if out.Client == nil {
		out.Client = &http.Client{}
	}
	return out
}

// clusterWorker is the coordinator's view of one worker daemon.
type clusterWorker struct {
	url   string
	alive atomic.Bool
	// sem bounds in-flight slabs on this worker.
	sem chan struct{}
	// pushMu serializes snapshot pushes; pushed maps graph name → CRC the
	// worker is known to hold.
	pushMu sync.Mutex
	pushed map[string]uint32

	dispatched atomic.Int64
	retried    atomic.Int64
	failed     atomic.Int64
}

// errGraphMissing marks a 412 slab answer: the worker lacks the graph
// version, so the dispatcher invalidates its push record and retries.
var errGraphMissing = errors.New("cluster: worker missing graph version")

// Coordinator fans a job's slab plan out over a fleet of worker daemons
// and merges their ε-Pareto slab archives. It owns worker health,
// placement, snapshot shipping and retry/failover policy; it does not own
// the job lifecycle — fairsqgd's job manager drives RunJob under the
// job's deadline context.
type Coordinator struct {
	opts    CoordinatorOptions
	workers []*clusterWorker

	snapMu sync.Mutex
	snaps  map[string]*snapBlob

	rngMu sync.Mutex
	rng   *rand.Rand

	jobsRun      atomic.Int64
	jobsFailed   atomic.Int64
	pushes       atomic.Int64
	pushBytes    atomic.Int64
	slabLatency  *Histogram
	healthSweeps atomic.Int64

	closeOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// snapBlob caches one graph's encoded snapshot; identity-checked against
// the *graph.Graph pointer so a re-registered graph re-encodes.
type snapBlob struct {
	g     *graph.Graph
	bytes []byte
	crc   uint32
}

// NewCoordinator validates the fleet and starts the health sweeper.
// Callers must Close to stop it.
func NewCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	if len(opts.Workers) == 0 {
		return nil, fmt.Errorf("cluster: coordinator needs at least one worker")
	}
	o := opts.withDefaults()
	c := &Coordinator{
		opts:        o,
		snaps:       make(map[string]*snapBlob),
		slabLatency: NewHistogram(slabBucketsMs),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	seen := make(map[string]bool)
	for _, raw := range o.Workers {
		u, err := normalizeWorkerURL(raw)
		if err != nil {
			return nil, err
		}
		if seen[u] {
			return nil, fmt.Errorf("cluster: duplicate worker %s", u)
		}
		seen[u] = true
		w := &clusterWorker{
			url:    u,
			sem:    make(chan struct{}, o.MaxInFlight),
			pushed: make(map[string]uint32),
		}
		// Optimistically alive: the first dispatch probes reality, and
		// transport errors flip the bit immediately.
		w.alive.Store(true)
		c.workers = append(c.workers, w)
	}
	seed := o.Seed
	if seed == 0 {
		h := fnv.New64a()
		for _, w := range c.workers {
			_, _ = io.WriteString(h, w.url)
		}
		seed = int64(h.Sum64())
	}
	c.rng = rand.New(rand.NewSource(seed))
	go c.healthLoop()
	return c, nil
}

// normalizeWorkerURL accepts host:port or a full URL and returns a base
// URL without a trailing slash.
func normalizeWorkerURL(raw string) (string, error) {
	u := strings.TrimSpace(raw)
	if u == "" {
		return "", fmt.Errorf("cluster: empty worker address")
	}
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	return strings.TrimRight(u, "/"), nil
}

// Close stops the health sweeper; idempotent.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		close(c.stop)
		<-c.done
	})
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Logger != nil {
		c.opts.Logger.Printf(format, args...)
	}
}

// healthLoop sweeps /readyz on every worker, reviving dead ones. Dispatch
// errors mark workers dead synchronously; this loop is the only way back.
func (c *Coordinator) healthLoop() {
	defer close(c.done)
	t := time.NewTicker(c.opts.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			c.sweepHealth()
		case <-c.stop:
			return
		}
	}
}

// sweepHealth probes every worker once.
func (c *Coordinator) sweepHealth() {
	c.healthSweeps.Add(1)
	var wg sync.WaitGroup
	for _, w := range c.workers {
		wg.Add(1)
		go func(w *clusterWorker) {
			defer wg.Done()
			ok := c.probe(w)
			was := w.alive.Swap(ok)
			if was != ok {
				if ok {
					c.logf("worker %s is back", w.url)
				} else {
					c.logf("worker %s is down", w.url)
				}
			}
			if !ok {
				// Whatever we thought was pushed may be gone with the
				// process; re-verify on revival.
				w.pushMu.Lock()
				w.pushed = make(map[string]uint32)
				w.pushMu.Unlock()
			}
		}(w)
	}
	wg.Wait()
}

func (c *Coordinator) probe(w *clusterWorker) bool {
	// The probe deadline is independent of the sweep cadence: a tight
	// HealthInterval must not turn slow-but-healthy workers dead.
	timeout := c.opts.HealthInterval
	if timeout < 2*time.Second {
		timeout = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := c.opts.Client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	return resp.StatusCode == http.StatusOK
}

// markDead flips a worker dead after a transport error, without waiting
// for the sweep.
func (c *Coordinator) markDead(w *clusterWorker, err error) {
	if w.alive.Swap(false) {
		c.logf("worker %s marked dead: %v", w.url, err)
	}
}

// LiveWorkers counts workers currently believed alive.
func (c *Coordinator) LiveWorkers() int {
	n := 0
	for _, w := range c.workers {
		if w.alive.Load() {
			n++
		}
	}
	return n
}

// WorkerURLs returns the normalized fleet addresses.
func (c *Coordinator) WorkerURLs() []string {
	urls := make([]string, len(c.workers))
	for i, w := range c.workers {
		urls[i] = w.url
	}
	return urls
}

// rankWorkers orders the fleet for a graph by rendezvous (highest random
// weight) hashing: every coordinator instance derives the same preference
// order from the graph name alone, so placement survives coordinator
// restarts and needs no shared state.
func (c *Coordinator) rankWorkers(graphName string) []*clusterWorker {
	type scored struct {
		w     *clusterWorker
		score uint64
	}
	ranked := make([]scored, len(c.workers))
	for i, w := range c.workers {
		h := fnv.New64a()
		_, _ = io.WriteString(h, w.url)
		_, _ = h.Write([]byte{0})
		_, _ = io.WriteString(h, graphName)
		ranked[i] = scored{w: w, score: mix64(h.Sum64())}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].w.url < ranked[j].w.url
	})
	out := make([]*clusterWorker, len(ranked))
	for i, s := range ranked {
		out[i] = s.w
	}
	return out
}

// mix64 is the splitmix64 finalizer; FNV alone avalanches poorly on the
// short url+name keys rendezvous hashing feeds it, which skews placement.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// candidates returns the workers a slab may run on, in preference order:
// the graph's live owners (top-Replicas of the rendezvous ranking), or —
// when every owner is dead — any live worker, which re-places the slab
// and ships the snapshot on demand (failover).
func (c *Coordinator) candidates(graphName string) []*clusterWorker {
	ranked := c.rankWorkers(graphName)
	owners := make([]*clusterWorker, 0, c.opts.Replicas)
	for _, w := range ranked[:c.opts.Replicas] {
		if w.alive.Load() {
			owners = append(owners, w)
		}
	}
	if len(owners) > 0 {
		return owners
	}
	var live []*clusterWorker
	for _, w := range ranked {
		if w.alive.Load() {
			live = append(live, w)
		}
	}
	return live
}

// snapshot returns the graph's cached snapshot encoding and content CRC.
func (c *Coordinator) snapshot(name string, g *graph.Graph) (*snapBlob, error) {
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	if b, ok := c.snaps[name]; ok && b.g == g {
		return b, nil
	}
	var buf bytes.Buffer
	if err := graph.WriteSnapshot(&buf, g); err != nil {
		return nil, fmt.Errorf("cluster: encode snapshot of %q: %w", name, err)
	}
	b := &snapBlob{g: g, bytes: buf.Bytes(), crc: crc32.ChecksumIEEE(buf.Bytes())}
	c.snaps[name] = b
	return b, nil
}

// ForgetGraph drops the coordinator's cached snapshot for name; the
// registry calls it on Remove so a later same-name registration
// re-encodes and re-places.
func (c *Coordinator) ForgetGraph(name string) {
	c.snapMu.Lock()
	delete(c.snaps, name)
	c.snapMu.Unlock()
}

// JobRequest is one distributed generation job.
type JobRequest struct {
	// Graph names the graph (the placement key); G is the coordinator's
	// local copy, the version every slab must run against.
	Graph string
	G     *graph.Graph
	// Payload rebuilds the run configuration on each worker.
	Payload JobPayload
	// RequestID correlates the job's slab fan-out in worker logs.
	RequestID string
	// OnSlab, when set, observes slab completions: done of total, and
	// which worker ran the slab.
	OnSlab func(done, total int, worker string)
}

// DistResult is a distributed job's merged outcome.
type DistResult struct {
	// Entries is the merged ε-Pareto archive, ordered by decreasing
	// diversity (ties by increasing coverage), matching the single-process
	// result presentation.
	Entries []core.SlabEntry
	// Eps is the tolerance the set satisfies.
	Eps float64
	// Stats sums the slabs' private work counters.
	Stats core.Stats
	// Merge tallies the coordinator-side archive union.
	Merge pareto.MergeStats
	// Slabs is the plan size; Retried counts extra dispatch attempts the
	// job needed beyond one per slab.
	Slabs   int
	Retried int
	Elapsed time.Duration
}

// RunJob plans the job's lattice into slabs, dispatches every slab to the
// fleet and merges the returned archives. The context bounds the whole job
// (the job manager's deadline); per-attempt timeouts, retry with
// exponential backoff and jitter, and failover to other live workers
// happen per slab inside.
func (c *Coordinator) RunJob(ctx context.Context, req JobRequest) (*DistResult, error) {
	start := time.Now()
	cfg, err := BuildConfig(req.Payload, req.G)
	if err != nil {
		return nil, err
	}
	plan := core.PlanSlabs(cfg.Template)
	blob, err := c.snapshot(req.Graph, req.G)
	if err != nil {
		return nil, err
	}
	c.logf("req=%s distributing %s over %d slabs (splitVar %d) to %d live workers",
		req.RequestID, req.Graph, plan.NumSlabs(), plan.SplitVar, c.LiveWorkers())

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	responses := make([]*SlabResponse, plan.NumSlabs())
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		done     int
		retried  int
	)
	for i, level := range plan.Levels {
		wg.Add(1)
		go func(slabIdx, level int) {
			defer wg.Done()
			resp, attempts, err := c.runSlab(ctx, req, blob, plan.SplitVar, level, slabIdx)
			mu.Lock()
			defer mu.Unlock()
			retried += attempts - 1
			if err != nil {
				if firstErr == nil && ctx.Err() == nil {
					firstErr = err
				}
				cancel()
				return
			}
			// Exactly-once by construction: each slab has one goroutine,
			// and the first successful attempt is the only one recorded.
			responses[slabIdx] = resp
			done++
			if req.OnSlab != nil {
				req.OnSlab(done, plan.NumSlabs(), resp.worker)
			}
		}(i, level)
	}
	wg.Wait()
	if firstErr != nil {
		c.jobsFailed.Add(1)
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		c.jobsFailed.Add(1)
		return nil, err
	}

	// In-box ties go to the smaller instance key, as in ParQGen.
	archive := pareto.NewKeyedArchive(cfg.Eps, func(e core.SlabEntry) string { return query.Instantiation(e.Bindings).Key() })
	res := &DistResult{Eps: cfg.Eps, Slabs: plan.NumSlabs(), Retried: retried}
	for _, resp := range responses {
		entries := make([]pareto.Entry[core.SlabEntry], len(resp.Entries))
		for j, e := range resp.Entries {
			entries[j] = pareto.Entry[core.SlabEntry]{Point: e.Point(), Payload: e}
		}
		res.Merge.Add(archive.Merge(entries))
		res.Stats.Add(resp.Stats)
	}
	res.Entries = archive.Payloads()
	sort.Slice(res.Entries, func(i, j int) bool {
		if res.Entries[i].Div != res.Entries[j].Div {
			return res.Entries[i].Div > res.Entries[j].Div
		}
		return res.Entries[i].Cov < res.Entries[j].Cov
	})
	res.Elapsed = time.Since(start)
	c.jobsRun.Add(1)
	return res, nil
}

// runSlab drives one slab to completion: pick a candidate worker, ensure
// it holds the graph, dispatch with the per-attempt timeout, and on any
// failure back off and try again — rotating through candidates so a dead
// or failing worker's slabs fail over to its peers.
func (c *Coordinator) runSlab(ctx context.Context, req JobRequest, blob *snapBlob, splitVar, level, slabIdx int) (*SlabResponse, int, error) {
	var lastErr error
	for attempt := 0; attempt < c.opts.SlabRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, attempt + 1, err
		}
		if attempt > 0 {
			if err := c.backoff(ctx, attempt); err != nil {
				return nil, attempt + 1, err
			}
		}
		cands := c.candidates(req.Graph)
		if len(cands) == 0 {
			lastErr = fmt.Errorf("cluster: no live workers for graph %q", req.Graph)
			continue
		}
		w := cands[(slabIdx+attempt)%len(cands)]
		resp, err := c.attemptSlab(ctx, w, req, blob, splitVar, level, slabIdx, attempt)
		if err == nil {
			return resp, attempt + 1, nil
		}
		w.retried.Add(1)
		lastErr = fmt.Errorf("worker %s: %w", w.url, err)
		if ctx.Err() == nil {
			c.logf("req=%s slab %d attempt %d on %s failed: %v", req.RequestID, slabIdx, attempt+1, w.url, err)
		}
	}
	return nil, c.opts.SlabRetries, fmt.Errorf("cluster: slab %d (var %d level %d) failed after %d attempts: %w",
		slabIdx, splitVar, level, c.opts.SlabRetries, lastErr)
}

// attemptSlab performs one dispatch attempt on one worker.
func (c *Coordinator) attemptSlab(ctx context.Context, w *clusterWorker, req JobRequest, blob *snapBlob, splitVar, level, slabIdx, attempt int) (*SlabResponse, error) {
	// Bounded in-flight per worker; respect cancellation while queued.
	select {
	case w.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-w.sem }()
	reqID := fmt.Sprintf("%s/s%d/a%d", req.RequestID, slabIdx, attempt+1)
	if err := c.ensureGraph(ctx, w, req.Graph, blob, reqID); err != nil {
		return nil, err
	}
	resp, err := c.postSlab(ctx, w, req, blob, splitVar, level, reqID)
	if errors.Is(err, errGraphMissing) {
		// The worker restarted (or was never pushed) since our record;
		// invalidate and push inline, then try once more in this attempt.
		w.pushMu.Lock()
		delete(w.pushed, req.Graph)
		w.pushMu.Unlock()
		if err := c.ensureGraph(ctx, w, req.Graph, blob, reqID); err != nil {
			return nil, err
		}
		resp, err = c.postSlab(ctx, w, req, blob, splitVar, level, reqID)
	}
	return resp, err
}

// ensureGraph makes sure the worker holds the graph at the planned CRC,
// consulting its content-addressed inventory first and pushing the cached
// snapshot bytes only when missing — so replicas and coordinator restarts
// never re-ship what a worker already has.
func (c *Coordinator) ensureGraph(ctx context.Context, w *clusterWorker, name string, blob *snapBlob, reqID string) error {
	w.pushMu.Lock()
	defer w.pushMu.Unlock()
	if w.pushed[name] == blob.crc {
		return nil
	}
	// Inventory check: the worker may already hold the version (preload,
	// earlier coordinator incarnation, another job).
	inv, err := c.fetchGraphs(ctx, w)
	if err != nil {
		c.markDead(w, err)
		return err
	}
	if inv[name] == blob.crc {
		w.pushed[name] = blob.crc
		return nil
	}
	pushCtx, cancel := context.WithTimeout(ctx, c.opts.SlabTimeout)
	defer cancel()
	url := fmt.Sprintf("%s%s/%s?crc=%08x", w.url, PathGraphs, name, blob.crc)
	httpReq, err := http.NewRequestWithContext(pushCtx, http.MethodPut, url, bytes.NewReader(blob.bytes))
	if err != nil {
		return err
	}
	httpReq.Header.Set(requestIDHeader, reqID)
	httpReq.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.opts.Client.Do(httpReq)
	if err != nil {
		c.markDead(w, err)
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("push graph %s: %s", name, readWireError(resp))
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	c.pushes.Add(1)
	c.pushBytes.Add(int64(len(blob.bytes)))
	w.pushed[name] = blob.crc
	c.logf("req=%s pushed graph %s (%d bytes, crc %08x) to %s", reqID, name, len(blob.bytes), blob.crc, w.url)
	return nil
}

// fetchGraphs reads a worker's graph inventory.
func (c *Coordinator) fetchGraphs(ctx context.Context, w *clusterWorker) (map[string]uint32, error) {
	ctx, cancel := context.WithTimeout(ctx, c.opts.SlabTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+PathGraphs, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.opts.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("list graphs: %s", readWireError(resp))
	}
	var out GraphsResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&out); err != nil {
		return nil, err
	}
	return out.Graphs, nil
}

// postSlab performs the slab POST under the per-attempt timeout.
func (c *Coordinator) postSlab(ctx context.Context, w *clusterWorker, req JobRequest, blob *snapBlob, splitVar, level int, reqID string) (*SlabResponse, error) {
	body, err := json.Marshal(SlabRequest{
		Graph:    req.Graph,
		GraphCRC: blob.crc,
		Job:      req.Payload,
		SplitVar: splitVar,
		Level:    level,
	})
	if err != nil {
		return nil, err
	}
	attemptCtx, cancel := context.WithTimeout(ctx, c.opts.SlabTimeout)
	defer cancel()
	httpReq, err := http.NewRequestWithContext(attemptCtx, http.MethodPost, w.url+PathSlab, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	httpReq.Header.Set(requestIDHeader, reqID)
	httpReq.Header.Set("Content-Type", "application/json")
	w.dispatched.Add(1)
	start := time.Now()
	resp, err := c.opts.Client.Do(httpReq)
	if err != nil {
		w.failed.Add(1)
		c.markDead(w, err)
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var out SlabResponse
		if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&out); err != nil {
			w.failed.Add(1)
			return nil, fmt.Errorf("decode slab response: %w", err)
		}
		out.worker = w.url
		c.slabLatency.Observe(float64(time.Since(start)) / float64(time.Millisecond))
		return &out, nil
	case http.StatusPreconditionFailed:
		w.failed.Add(1)
		return nil, fmt.Errorf("%w: %s", errGraphMissing, readWireError(resp))
	default:
		w.failed.Add(1)
		return nil, fmt.Errorf("slab: %s", readWireError(resp))
	}
}

// backoff sleeps the exponential backoff for attempt (1-based retry) with
// ±50% jitter, respecting cancellation.
func (c *Coordinator) backoff(ctx context.Context, attempt int) error {
	d := c.opts.RetryBase << (attempt - 1)
	if d > c.opts.RetryMax {
		d = c.opts.RetryMax
	}
	c.rngMu.Lock()
	jitter := 0.5 + c.rng.Float64() // in [0.5, 1.5)
	c.rngMu.Unlock()
	d = time.Duration(float64(d) * jitter)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// readWireError extracts the JSON error body of a non-2xx response.
func readWireError(resp *http.Response) string {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var we wireError
	if json.Unmarshal(data, &we) == nil && we.Error != "" {
		return fmt.Sprintf("%d: %s", resp.StatusCode, we.Error)
	}
	return fmt.Sprintf("%d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
}

// MetricsSnapshot renders the coordinator's `cluster` metrics section:
// per-worker dispatch counters, the slab latency histogram, snapshot push
// volume and the live-worker gauge.
func (c *Coordinator) MetricsSnapshot() map[string]any {
	workers := make(map[string]any, len(c.workers))
	var dispatched, retried, failed int64
	for _, w := range c.workers {
		d, r, f := w.dispatched.Load(), w.retried.Load(), w.failed.Load()
		dispatched += d
		retried += r
		failed += f
		workers[w.url] = map[string]any{
			"alive":      w.alive.Load(),
			"dispatched": d,
			"retried":    r,
			"failed":     f,
		}
	}
	return map[string]any{
		"role":            "coordinator",
		"liveWorkers":     c.LiveWorkers(),
		"workers":         workers,
		"slabsDispatched": dispatched,
		"slabsRetried":    retried,
		"slabsFailed":     failed,
		"jobsDistributed": c.jobsRun.Load(),
		"jobsFailed":      c.jobsFailed.Load(),
		"snapshotPushes":  c.pushes.Load(),
		"snapshotBytes":   c.pushBytes.Load(),
		"slabLatencyMs":   c.slabLatency.Snapshot(),
	}
}
