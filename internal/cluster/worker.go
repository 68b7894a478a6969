package cluster

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fairsqg/internal/core"
	"fairsqg/internal/graph"
	"fairsqg/internal/match"
)

// WorkerOptions configures a slab-execution worker.
type WorkerOptions struct {
	// MaxSnapshotBytes bounds pushed snapshot bodies (default 64 MiB).
	MaxSnapshotBytes int64
	// Logger receives request logs; nil silences them.
	Logger Logger
}

// workerGraph is one registered graph with its shared evaluation state:
// like the standalone registry, a single engine (candidate cache, pair
// cache, matcher pool) serves every slab that targets the graph.
type workerGraph struct {
	g      *graph.Graph
	engine *match.Engine
	crc    uint32
}

// Worker executes slabs for a coordinator: it holds pushed (or preloaded)
// graphs keyed by name and snapshot CRC and runs core.RunSlab against
// them. One Worker instance backs `fairsqgd -role=worker`.
type Worker struct {
	opts WorkerOptions

	mu     sync.Mutex
	graphs map[string]*workerGraph

	slabsRun      atomic.Int64
	slabsFailed   atomic.Int64
	snapshotsIn   atomic.Int64
	snapshotBytes atomic.Int64
}

// NewWorker returns an empty worker.
func NewWorker(opts WorkerOptions) *Worker {
	if opts.MaxSnapshotBytes <= 0 {
		opts.MaxSnapshotBytes = 64 << 20
	}
	return &Worker{opts: opts, graphs: make(map[string]*workerGraph)}
}

func (w *Worker) logf(format string, args ...any) {
	if w.opts.Logger != nil {
		w.opts.Logger.Printf(format, args...)
	}
}

// SnapshotCRC computes a frozen graph's content address: the CRC-32 of
// its deterministic binary snapshot encoding. Two processes that freeze
// the same logical graph — or decode the same snapshot — agree on it.
func SnapshotCRC(g *graph.Graph) (uint32, error) {
	var buf bytes.Buffer
	if err := graph.WriteSnapshot(&buf, g); err != nil {
		return 0, err
	}
	return crc32.ChecksumIEEE(buf.Bytes()), nil
}

// RegisterGraph registers a frozen graph under name, computing its
// content address locally; the daemon's -graph preload uses it. A
// re-registration under the same name replaces the previous version.
func (w *Worker) RegisterGraph(name string, g *graph.Graph) error {
	if g == nil || !g.Frozen() {
		return fmt.Errorf("cluster: graph %q must be frozen", name)
	}
	crc, err := SnapshotCRC(g)
	if err != nil {
		return err
	}
	w.register(name, g, crc)
	return nil
}

func (w *Worker) register(name string, g *graph.Graph, crc uint32) {
	entry := &workerGraph{
		g:      g,
		crc:    crc,
		engine: match.NewEngine(g, match.EngineOptions{}),
	}
	w.mu.Lock()
	w.graphs[name] = entry
	w.mu.Unlock()
}

// Graphs returns the registered graph names and snapshot CRCs.
func (w *Worker) Graphs() map[string]uint32 {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[string]uint32, len(w.graphs))
	for name, e := range w.graphs {
		out[name] = e.crc
	}
	return out
}

// MetricsSnapshot renders the worker's /metrics document.
func (w *Worker) MetricsSnapshot() map[string]any {
	w.mu.Lock()
	names := make([]string, 0, len(w.graphs))
	for name := range w.graphs {
		names = append(names, name)
	}
	w.mu.Unlock()
	sort.Strings(names)
	return map[string]any{
		"role": "worker",
		"cluster": map[string]any{
			"slabsRun":         w.slabsRun.Load(),
			"slabsFailed":      w.slabsFailed.Load(),
			"snapshotsIn":      w.snapshotsIn.Load(),
			"snapshotBytes":    w.snapshotBytes.Load(),
			"graphs":           names,
			"graphsRegistered": len(names),
		},
	}
}

// Handler returns the worker's HTTP surface: the cluster protocol plus
// health and metrics endpoints.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		writeWireJSON(rw, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(rw http.ResponseWriter, r *http.Request) {
		writeWireJSON(rw, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("GET /metrics", func(rw http.ResponseWriter, r *http.Request) {
		writeWireJSON(rw, http.StatusOK, w.MetricsSnapshot())
	})
	mux.HandleFunc("GET "+PathGraphs, w.handleListGraphs)
	mux.HandleFunc("PUT "+PathGraphs+"/{name}", w.handlePushGraph)
	mux.HandleFunc("POST "+PathSlab, w.handleSlab)
	return w.withRequestID(mux)
}

// withRequestID echoes (or assigns) the request ID the coordinator
// propagates, so one job's slab fan-out correlates across both processes'
// logs.
func (w *Worker) withRequestID(next http.Handler) http.Handler {
	var seq atomic.Uint64
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(requestIDHeader)
		if id == "" {
			id = fmt.Sprintf("w%08x", seq.Add(1))
		}
		rw.Header().Set(requestIDHeader, id)
		start := time.Now()
		next.ServeHTTP(rw, r)
		w.logf("req=%s %s %s (%s)", id, r.Method, r.URL.Path, time.Since(start).Round(time.Microsecond))
	})
}

func (w *Worker) handleListGraphs(rw http.ResponseWriter, r *http.Request) {
	writeWireJSON(rw, http.StatusOK, GraphsResponse{Graphs: w.Graphs()})
}

// handlePushGraph ingests a binary snapshot. The body's CRC-32 is the
// graph's content address: when the ?crc= query parameter is present it
// must match, which catches truncation and lets the coordinator treat the
// push as idempotent.
func (w *Worker) handlePushGraph(rw http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, err := io.ReadAll(http.MaxBytesReader(rw, r.Body, w.opts.MaxSnapshotBytes))
	if err != nil {
		writeWireError(rw, http.StatusRequestEntityTooLarge, "snapshot body exceeds %d bytes", w.opts.MaxSnapshotBytes)
		return
	}
	crc := crc32.ChecksumIEEE(body)
	if want := r.URL.Query().Get("crc"); want != "" && want != fmt.Sprintf("%08x", crc) {
		writeWireError(rw, http.StatusBadRequest, "snapshot CRC mismatch: body sums to %08x, caller said %s", crc, want)
		return
	}
	g, err := graph.ReadSnapshot(bytes.NewReader(body))
	if err != nil {
		writeWireError(rw, http.StatusBadRequest, "bad snapshot: %v", err)
		return
	}
	w.register(name, g, crc)
	w.snapshotsIn.Add(1)
	w.snapshotBytes.Add(int64(len(body)))
	w.logf("graph %s registered from pushed snapshot (%d bytes, crc %08x)", name, len(body), crc)
	writeWireJSON(rw, http.StatusCreated, map[string]any{"name": name, "crc": crc, "nodes": g.NumNodes(), "edges": g.NumEdges()})
}

// handleSlab executes one slab. A graph mismatch answers 412 Precondition
// Failed — the coordinator's cue to push the snapshot and retry — keeping
// execution strictly content-addressed: a slab never runs against a graph
// version other than the one the coordinator planned with.
func (w *Worker) handleSlab(rw http.ResponseWriter, r *http.Request) {
	var req SlabRequest
	if err := readJSON(r.Body, &req); err != nil {
		writeWireError(rw, http.StatusBadRequest, "bad slab request: %v", err)
		return
	}
	w.mu.Lock()
	entry := w.graphs[req.Graph]
	w.mu.Unlock()
	if entry == nil {
		writeWireError(rw, http.StatusPreconditionFailed, "graph %q not registered on this worker", req.Graph)
		return
	}
	if entry.crc != req.GraphCRC {
		writeWireError(rw, http.StatusPreconditionFailed, "graph %q has crc %08x, coordinator wants %08x", req.Graph, entry.crc, req.GraphCRC)
		return
	}
	// The graph's shared engine: every slab on this graph reuses one warm
	// candidate cache, one matcher pool and what earlier slabs left in the
	// engine's store — mirroring the standalone registry.
	cfg, err := BuildConfigOn(req.Job, entry.engine)
	if err != nil {
		w.slabsFailed.Add(1)
		writeWireError(rw, http.StatusBadRequest, "%v", err)
		return
	}
	// The request context carries the coordinator's per-slab timeout, so an
	// abandoned dispatch aborts here too instead of burning the worker.
	cfg.Ctx = r.Context()
	runner, err := core.NewRunner(cfg)
	if err != nil {
		w.slabsFailed.Add(1)
		writeWireError(rw, http.StatusBadRequest, "%v", err)
		return
	}
	res, err := runner.RunSlab(req.SplitVar, req.Level)
	if err != nil {
		w.slabsFailed.Add(1)
		writeWireError(rw, http.StatusInternalServerError, "slab (%d,%d): %v", req.SplitVar, req.Level, err)
		return
	}
	w.slabsRun.Add(1)
	writeWireJSON(rw, http.StatusOK, SlabResponse{
		Entries:   res.Entries,
		Stats:     res.Stats,
		ElapsedMs: float64(res.Elapsed) / float64(time.Millisecond),
	})
}
