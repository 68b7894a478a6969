// Command fairsqgd serves fairness-aware subgraph query generation over
// HTTP: upload or preload graphs, submit asynchronous generation jobs,
// stream their progress as NDJSON, and scrape metrics.
//
// Usage:
//
//	fairsqgd -addr :8080 -graph lki=lki.tsv -workers 2
//
// The daemon runs in one of three roles:
//
//	-role standalone   (default) the full job API, everything in-process
//	-role worker       a cluster slab executor: /cluster/slab, /cluster/graphs
//	-role coordinator  the full job API with par jobs fanned out over
//	                   -cluster-workers host:port,... (see README)
//
// Endpoints (see README.md for curl examples):
//
//	GET  /healthz, /readyz, /metrics, /debug/pprof/, /debug/vars
//	GET  /v1/graphs            PUT/POST /v1/graphs/{name}
//	POST /v1/jobs[/batch]      GET /v1/jobs/{id}[/result|/events]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fairsqg/internal/cluster"
	"fairsqg/internal/graph"
	"fairsqg/internal/server"
)

// graphFlags collects repeatable -graph name=path pairs.
type graphFlags []struct{ name, path string }

func (g *graphFlags) String() string {
	parts := make([]string, len(*g))
	for i, e := range *g {
		parts[i] = e.name + "=" + e.path
	}
	return strings.Join(parts, ",")
}

func (g *graphFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*g = append(*g, struct{ name, path string }{name, path})
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(args []string, errw *os.File) int {
	fs := flag.NewFlagSet("fairsqgd", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		addr           = fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		role           = fs.String("role", "standalone", "process role: standalone, worker or coordinator")
		clusterWorkers = fs.String("cluster-workers", "", "comma-separated worker addresses (host:port,...) the coordinator dispatches slabs to")
		replicas       = fs.Int("replicas", 2, "workers each graph is placed on in coordinator mode")
		slabTimeout    = fs.Duration("slab-timeout", time.Minute, "per-attempt deadline for one dispatched slab")
		slabRetries    = fs.Int("slab-retries", 4, "attempts per slab before a distributed job fails")
		workers        = fs.Int("workers", 2, "concurrent job runners")
		queue          = fs.Int("queue", 16, "queued-job capacity before shedding with 429")
		retention      = fs.Duration("retention", 15*time.Minute, "how long finished jobs stay visible")
		timeout        = fs.Duration("timeout", 5*time.Minute, "default per-job deadline")
		maxTimeout     = fs.Duration("max-timeout", 30*time.Minute, "ceiling on per-job deadlines")
		maxUpload      = fs.Int64("max-upload", 64<<20, "largest accepted graph upload in bytes")
		snapshotDir    = fs.String("snapshot-dir", "", "persist registered graphs as binary snapshots here and restore them on startup (warm restart; standalone/coordinator)")
		mmapGraphs     = fs.Bool("mmap-graphs", false, "serve graphs memory-mapped from their snapshots in -snapshot-dir instead of decoding to the heap (out-of-core: restore is O(open), resident memory tracks what queries touch)")
		compactAfter   = fs.Int("compact-after", 0, "checkpoint a mutated graph in the background after this many mutation ops since its last compaction (0 disables; with -snapshot-dir this also rotates the snapshot epoch and resets the delta log)")
		drainFor       = fs.Duration("drain", 30*time.Second, "how long shutdown waits for running jobs")
		graphs         graphFlags
	)
	fs.Var(&graphs, "graph", "preload a graph as name=path (.json is JSON, .fsnap a snapshot, else TSV; repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(errw, "fairsqgd: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	switch *role {
	case "standalone", "coordinator", "worker":
	default:
		fmt.Fprintf(errw, "fairsqgd: -role: unknown role %q (want standalone, worker or coordinator)\n", *role)
		return 2
	}
	if *role == "coordinator" && *clusterWorkers == "" {
		fmt.Fprintf(errw, "fairsqgd: -role=coordinator needs -cluster-workers host:port,...\n")
		return 2
	}
	if *role != "coordinator" && *clusterWorkers != "" {
		fmt.Fprintf(errw, "fairsqgd: -cluster-workers only applies to -role=coordinator\n")
		return 2
	}
	if *mmapGraphs && *snapshotDir == "" {
		fmt.Fprintf(errw, "fairsqgd: -mmap-graphs needs -snapshot-dir (graphs are mapped from their snapshot files)\n")
		return 2
	}

	logger := log.New(errw, "fairsqgd ", log.LstdFlags|log.Lmsgprefix)

	if *role == "worker" {
		return runWorker(workerConfig{
			addr: *addr, drainFor: *drainFor, graphs: graphs,
			opts: cluster.WorkerOptions{
				MaxSnapshotBytes: *maxUpload,
				Logger:           logger,
			},
		}, logger, errw)
	}

	var coord *cluster.Coordinator
	if *role == "coordinator" {
		var err error
		coord, err = cluster.NewCoordinator(cluster.CoordinatorOptions{
			Workers:     strings.Split(*clusterWorkers, ","),
			Replicas:    *replicas,
			SlabTimeout: *slabTimeout,
			SlabRetries: *slabRetries,
			Logger:      logger,
		})
		if err != nil {
			fmt.Fprintf(errw, "fairsqgd: %v\n", err)
			return 2
		}
		defer coord.Close()
		logger.Printf("coordinator over workers %v", coord.WorkerURLs())
	}

	srv := server.New(server.Options{
		Jobs: server.ManagerOptions{
			Workers:        *workers,
			QueueDepth:     *queue,
			Retention:      *retention,
			DefaultTimeout: *timeout,
			MaxTimeout:     *maxTimeout,
		},
		MaxUploadBytes: *maxUpload,
		SnapshotDir:    *snapshotDir,
		MmapGraphs:     *mmapGraphs,
		CompactAfter:   *compactAfter,
		Cluster:        coord,
		Logger:         logger,
	})
	srv.PublishExpvar("fairsqgd")

	// Graphs that came back warm from the snapshot directory don't need
	// their source files re-parsed; a corrupt or missing snapshot falls
	// through to the normal load below.
	restored := make(map[string]bool)
	for _, name := range srv.RestoredGraphs() {
		restored[name] = true
	}
	for _, gf := range graphs {
		if restored[gf.name] {
			logger.Printf("graph %s restored from snapshot, skipping %s", gf.name, gf.path)
			continue
		}
		if err := srv.Registry().LoadFile(gf.name, gf.path); err != nil {
			fmt.Fprintf(errw, "fairsqgd: load graph %s: %v\n", gf.name, err)
			return 1
		}
		info, _ := srv.Registry().Info(gf.name)
		logger.Printf("loaded graph %s: %d nodes, %d edges", gf.name, info.Nodes, info.Edges)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(errw, "fairsqgd: listen: %v\n", err)
		return 1
	}
	logger.Printf("role %s", *role)
	logger.Printf("listening on %s", ln.Addr())

	httpSrv := &http.Server{Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		fmt.Fprintf(errw, "fairsqgd: serve: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	stop()
	logger.Printf("shutting down: draining jobs (up to %v)", *drainFor)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	// Stop accepting HTTP first, then drain the job manager so running
	// jobs finish and persist their results before the process exits.
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		logger.Printf("job drain cut short: %v", err)
		return 1
	}
	logger.Printf("bye")
	return 0
}

// workerConfig carries the worker-role settings out of flag parsing.
type workerConfig struct {
	addr     string
	drainFor time.Duration
	graphs   graphFlags
	opts     cluster.WorkerOptions
}

// runWorker serves the cluster worker protocol: slab execution and
// snapshot ingestion, with health and metrics endpoints. Workers hold no
// job state; shutdown just stops accepting and lets in-flight slabs
// finish within the drain window.
func runWorker(cfg workerConfig, logger *log.Logger, errw *os.File) int {
	w := cluster.NewWorker(cfg.opts)
	for _, gf := range cfg.graphs {
		g, err := graph.ReadFile(gf.path)
		if err != nil {
			fmt.Fprintf(errw, "fairsqgd: load graph %s: %v\n", gf.name, err)
			return 1
		}
		if err := w.RegisterGraph(gf.name, g); err != nil {
			fmt.Fprintf(errw, "fairsqgd: register graph %s: %v\n", gf.name, err)
			return 1
		}
		logger.Printf("loaded graph %s: %d nodes, %d edges", gf.name, g.NumNodes(), g.NumEdges())
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		fmt.Fprintf(errw, "fairsqgd: listen: %v\n", err)
		return 1
	}
	logger.Printf("role worker")
	logger.Printf("listening on %s", ln.Addr())

	httpSrv := &http.Server{Handler: w.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		fmt.Fprintf(errw, "fairsqgd: serve: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	stop()
	logger.Printf("shutting down: letting in-flight slabs finish (up to %v)", cfg.drainFor)
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.drainFor)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		logger.Printf("http shutdown: %v", err)
		return 1
	}
	logger.Printf("bye")
	return 0
}
