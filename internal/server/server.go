// Package server implements fairsqgd, the HTTP query-generation service:
// a registry of frozen graphs each sharing one match engine and candidate
// cache, an asynchronous job manager running the generation algorithms
// under per-job deadlines, and an observability surface (health, metrics,
// pprof, NDJSON progress streams).
package server

import (
	"context"
	"expvar"
	"net/http"
	"sync/atomic"

	"fairsqg/internal/cluster"
)

// Options configures a Server.
type Options struct {
	// Workers / QueueDepth / Retention / DefaultTimeout / MaxTimeout /
	// GCInterval tune the job manager (see ManagerOptions).
	Jobs ManagerOptions
	// MaxUploadBytes bounds graph upload bodies (default 64 MiB).
	MaxUploadBytes int64
	// SnapshotDir, when non-empty, enables warm restarts: every
	// registered graph is persisted there as a binary frozen-layout
	// snapshot (atomic temp-file + rename), and New restores the registry
	// from the directory before serving. Corrupt or partial files are
	// skipped (and partial ones cleaned), so a crash mid-write only costs
	// the warm start for that graph, never correctness.
	SnapshotDir string
	// MmapGraphs switches the snapshot store (SnapshotDir must be set) to
	// memory-mapped graph serving: restored and uploaded graphs are opened
	// with graph.OpenSnapshotMapped instead of decoded to the heap, so
	// startup is O(open) per graph and resident memory is bounded by the
	// pages queries actually touch — graphs larger than RAM serve fine.
	// A file of any other snapshot version is skipped like a corrupt one
	// (counted in /metrics as storage.snapshots.fallbacks) until its graph
	// is registered again.
	MmapGraphs bool
	// CompactAfter, when > 0, checkpoints a live graph in the background
	// once it accumulates that many mutation ops since its last
	// compaction: the copy-on-write generations re-freeze into a
	// canonical layout and, with SnapshotDir set, the resurrected image
	// is written as the next-epoch snapshot and the delta log resets —
	// bounding both the overlay chain and the restart replay work.
	CompactAfter int
	// Cluster, when set, puts the server in coordinator mode: par jobs
	// are scheduled over the coordinator's worker fleet instead of the
	// local lattice walk, /metrics grows a `cluster` section, and /readyz
	// additionally requires at least one live worker. The job API is
	// otherwise unchanged. The server does not own the coordinator's
	// lifecycle; the daemon closes it on shutdown.
	Cluster *cluster.Coordinator
	// Logger receives request and lifecycle logs; nil silences them.
	Logger printfLogger
}

// Server is the assembled service: registry + job manager + HTTP surface.
type Server struct {
	opts     Options
	reg      *Registry
	jobs     *Manager
	met      *metrics
	snaps    *snapshotStore
	restored []string
	logSink
	handler  http.Handler
	draining atomic.Bool
}

// New builds a Server. It starts the job manager's worker pool; callers
// must Shutdown to release it. With Options.SnapshotDir set, the graph
// registry is restored from the directory's snapshots before New returns
// — restore failures (unreadable dir, corrupt files) degrade to a cold
// registry rather than failing construction.
func New(opts Options) *Server {
	setDefault(&opts.MaxUploadBytes, 64<<20)
	s := &Server{
		opts:    opts,
		reg:     NewRegistry(),
		met:     newMetrics(),
		logSink: logSink{opts.Logger},
	}
	s.reg.compactAfter = opts.CompactAfter
	s.reg.logSink = s.logSink
	if opts.SnapshotDir != "" {
		snaps, err := newSnapshotStore(opts.SnapshotDir, opts.MmapGraphs, opts.Logger)
		if err != nil {
			s.logf("snapshots disabled: %v", err)
		} else {
			s.snaps = snaps
			s.reg.snaps = snaps
			if s.restored = snaps.restore(s.reg); len(s.restored) > 0 {
				s.logf("restored %d graph(s) from snapshots: %v", len(s.restored), s.restored)
			}
		}
	}
	s.jobs = NewManager(s.reg, s.met, opts.Jobs)
	s.jobs.cluster = opts.Cluster
	s.handler = s.routes()
	return s
}

// RestoredGraphs returns the names restored from the snapshot directory
// during New, sorted; the daemon uses it to skip -graph flags whose name
// already came back warm.
func (s *Server) RestoredGraphs() []string { return s.restored }

// Registry exposes the graph registry, e.g. for preloading from files.
func (s *Server) Registry() *Registry { return s.reg }

// Jobs exposes the job manager.
func (s *Server) Jobs() *Manager { return s.jobs }

// Handler returns the root HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Shutdown stops intake, drains the job manager (see Manager.Shutdown for
// the deadline semantics), then tears down the registry: every graph's
// registry reference is dropped, which for mapped graphs unmaps the
// snapshot files once the drained jobs' handles are gone. Snapshot files
// themselves stay on disk for the next warm start.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	err := s.jobs.Shutdown(ctx)
	s.reg.closeAll()
	return err
}

// MetricsSnapshot renders the /metrics document: job counters and
// states, queue depth, per-graph engine/cache counters, and
// per-algorithm latency histograms.
func (s *Server) MetricsSnapshot() map[string]any {
	states, queueDepth := s.jobs.counts()
	graphs := map[string]any{}
	var cacheHits, cacheMisses int64
	var distEvals, distHits, distMisses int64
	var indexSel, scanSel, sigPruned, arcsRevised, arcsInherited, scratchPlans int
	var indexBytes, columnBytes int64
	for _, info := range s.reg.List() {
		graphs[info.Name] = info
		cacheHits += info.Engine.Cache.Hits
		cacheMisses += info.Engine.Cache.Misses
		distEvals += info.Engine.Dist.Evals
		distHits += info.Engine.Dist.Hits
		distMisses += info.Engine.Dist.Misses
		indexSel += info.Engine.IndexSelections
		scanSel += info.Engine.ScanSelections
		sigPruned += info.Engine.SigPruned
		arcsRevised += info.Engine.ArcsRevised
		arcsInherited += info.Engine.ArcsInherited
		scratchPlans += info.Engine.ScratchPlans
		indexBytes += info.Memory.IndexBytes
		columnBytes += info.Memory.ColumnBytes
	}
	out := map[string]any{
		"jobs": map[string]any{
			"submitted":  s.met.jobsSubmitted.Value(),
			"shed":       s.met.jobsShed.Value(),
			"done":       s.met.jobsDone.Value(),
			"failed":     s.met.jobsFailed.Value(),
			"cancelled":  s.met.jobsCancelled.Value(),
			"states":     states,
			"queueDepth": queueDepth,
		},
		"cache": map[string]any{
			"hits":   cacheHits,
			"misses": cacheMisses,
		},
		"distCache": map[string]any{
			"evals":  distEvals,
			"hits":   distHits,
			"misses": distMisses,
		},
		"storage": s.storageMetrics(map[string]any{
			"indexSelections": indexSel,
			"scanSelections":  scanSel,
			"sigPruned":       sigPruned,
			"arcsRevised":     arcsRevised,
			"arcsInherited":   arcsInherited,
			"scratchPlans":    scratchPlans,
			"indexBytes":      indexBytes,
			"columnBytes":     columnBytes,
			// Run-side inheritance and split scoring, summed over done
			// jobs' core.Stats.
			"answersShared":  s.met.answersShared.Value(),
			"ancestorsFound": s.met.ancestorsFound.Value(),
			"scoreSplits":    s.met.scoreSplits.Value(),
		}),
		"http": map[string]any{
			"requests": s.met.httpRequests.Value(),
			"byCode":   s.met.httpByCode.String(),
		},
		"latencyMs": s.met.latencySnapshot(),
		"graphs":    graphs,
	}
	if s.opts.Cluster != nil {
		out["cluster"] = s.opts.Cluster.MetricsSnapshot()
	}
	return out
}

// storageMetrics adds the counter sections to /metrics' storage object:
// struct fields, except loadMs and the mappedBytes gauge, derived here.
func (s *Server) storageMetrics(st map[string]any) map[string]any {
	st["mutations"] = renderCounters(&s.reg.muts)
	if s.snaps != nil {
		snaps := renderCounters(&s.snaps.snapCounters)
		snaps["loadMs"] = float64(s.snaps.loadNanos.Load()) / 1e6
		snaps["mappedBytes"] = s.reg.mappedBytes()
		st["snapshots"] = snaps
		st["wal"] = renderCounters(&s.snaps.wal)
	}
	return st
}

// PublishExpvar registers the server's metrics snapshot in the
// process-global expvar namespace under name. Call at most once per
// process per name (expvar panics on duplicates) — the daemon does, tests
// don't.
func (s *Server) PublishExpvar(name string) {
	expvar.Publish(name, expvar.Func(func() any { return s.MetricsSnapshot() }))
}
