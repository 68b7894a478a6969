package server

import (
	"fmt"
	"io"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fairsqg/internal/graph"
	"fairsqg/internal/match"
)

// graphNameRe restricts registry names so they embed cleanly in URLs,
// logs and metrics keys (and so the epoch-qualified snapshot names,
// which use '@', can never collide with a registry name).
var graphNameRe = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// graphEntry is one registered graph with its per-graph shared evaluation
// state. The graph itself lives behind a graph.Live mutation head: cur is
// the generation currently served (the registry holds one backing
// reference to it), and engine is the match engine built over exactly
// that generation. A mutation batch produces the next generation and a
// fresh engine around the same shared caches, so refinement siblings
// across jobs keep reusing each other's filter scans while stale entries
// can never be served (cache keys carry the graph's (lineage, version)).
type graphEntry struct {
	name     string
	live     *graph.Live
	cur      *graph.Graph  // served generation; swapped with engine under r.mu
	base     *graph.Graph  // generation charged to mappedBytes accounting
	engine   *match.Engine // engine over cur
	loadedAt time.Time

	// retired accumulates the matcher counters of engines replaced by
	// mutations, so /metrics never loses completed work (guarded by r.mu).
	retired match.EngineStats

	// mutMu serializes this entry's mutate / checkpoint / remove paths;
	// Acquire and Release never take it.
	mutMu      sync.Mutex
	wal        *graph.WALWriter // lazily opened delta log; nil without a store
	compacting bool             // one background checkpoint at a time (mutMu)

	epoch    atomic.Uint64 // snapshot epoch the delta log extends
	mutOps   atomic.Int64  // mutation ops applied since registration
	replayed int           // delta-log batches replayed at restore

	refs    int
	removed bool
}

// GraphInfo is the externally visible summary of a registered graph.
type GraphInfo struct {
	Name     string    `json:"name"`
	Nodes    int       `json:"nodes"`
	Edges    int       `json:"edges"`
	Refs     int       `json:"refs"`
	LoadedAt time.Time `json:"loadedAt"`
	// Version counts the graph's mutation generations (1 = as loaded);
	// Mutations is the total mutation ops applied since registration, and
	// ReplayedBatches how many delta-log batches restore replayed to reach
	// the starting state. Epoch identifies the on-disk base snapshot.
	Version         uint64 `json:"version"`
	Mutations       int64  `json:"mutations"`
	ReplayedBatches int    `json:"replayedBatches,omitempty"`
	Epoch           uint64 `json:"snapshotEpoch"`
	// Memory reports the frozen graph's columnar-storage and sorted-index
	// footprint, fixed at freeze time.
	Memory graph.MemoryStats `json:"memory"`
	// Engine reports the shared engine's cumulative counters, including
	// the candidate cache — the numbers /metrics scrapes per graph.
	// Matcher counters of engines retired by mutations are folded in.
	Engine match.EngineStats `json:"engine"`
}

// mutationStats aggregates the registry's mutation counters for the
// /metrics storage.mutations section.
type mutationStats struct {
	batches         atomic.Int64 // batches applied successfully
	ops             atomic.Int64 // individual mutations inside them
	rejected        atomic.Int64 // batches refused by validation
	compactions     atomic.Int64 // Live.Compact runs
	checkpoints     atomic.Int64 // compactions fully persisted (snapshot + log reset)
	checkpointFails atomic.Int64 // compactions whose persistence failed
}

func (m *mutationStats) counters() map[string]any {
	return map[string]any{
		"batches":         m.batches.Load(),
		"ops":             m.ops.Load(),
		"rejected":        m.rejected.Load(),
		"compactions":     m.compactions.Load(),
		"checkpoints":     m.checkpoints.Load(),
		"checkpointFails": m.checkpointFails.Load(),
	}
}

// Registry holds named, frozen graphs and hands out ref-counted handles.
// Loading happens once per graph; every request afterwards shares the
// frozen structure and the per-graph match engine. Mutations go through
// Mutate, which advances the graph's generation, persists the batch to
// the graph's delta log, and swaps in an engine over the new generation.
//
// Teardown of snapshot-backed resources is delegated to the graph's own
// backing-store reference count: the registry holds one reference per
// entry (dropped by Remove or closeAll), and every Handle holds one more
// (Acquire pairs graph.Retain with Release's graph.Close). For mapped
// graphs the underlying file mapping is therefore unmapped exactly when
// the entry is gone AND the last in-flight job releases its handle; for
// heap graphs all of this is a no-op.
type Registry struct {
	mu      sync.Mutex
	graphs  map[string]*graphEntry
	workers int
	cache   int
	// putMu serializes Put/Remove so a mapped-mode Put can persist the
	// snapshot and reopen it mapped without racing another registration
	// of the same name (Acquire/Release only take mu and are unaffected).
	putMu sync.Mutex
	// compactAfter, when > 0, triggers a background checkpoint once a
	// graph accumulates that many mutation ops since its last compaction.
	compactAfter int
	// snaps, when set, persists every registered graph as a binary
	// snapshot plus a delta log of its mutation batches, and deletes the
	// files again on Remove; restore on startup goes through putLive
	// directly so freshly loaded snapshots aren't immediately rewritten.
	snaps *snapshotStore
	muts  mutationStats
	// onMutate, when set, observes every applied batch (the online
	// generation hook); called outside all registry locks.
	onMutate func(name string, ops []graph.Mutation, res *graph.ApplyResult)
}

// NewRegistry returns an empty registry. workers is the per-graph engine
// fan-out (<= 0 selects GOMAXPROCS); cacheSize bounds each graph's
// candidate cache (0 default, < 0 disabled).
func NewRegistry(workers, cacheSize int) *Registry {
	return &Registry{graphs: make(map[string]*graphEntry), workers: workers, cache: cacheSize}
}

// Put registers a frozen graph under name, rejecting duplicates. When a
// snapshot store is attached, the frozen layout is persisted (atomic
// temp-file + rename) so the next startup restores the graph without
// re-parsing or re-freezing, and any stale delta log or checkpoint file
// left by an earlier incarnation of the name is deleted. In mapped mode
// the freshly saved snapshot is immediately reopened memory-mapped and
// the mapped graph is what gets registered, so an uploaded graph's heap
// copy is garbage the moment Put returns; if the save or reopen fails the
// heap graph serves as-is.
func (r *Registry) Put(name string, g *graph.Graph) error {
	r.putMu.Lock()
	defer r.putMu.Unlock()
	if err := r.check(name, g); err != nil {
		return err
	}
	if r.snaps != nil {
		r.snaps.clearDerived(name)
		if r.snaps.save(name, g) && r.snaps.mmap {
			if mg, err := r.snaps.load(name); err == nil {
				g = mg
			} else {
				r.snaps.logf("snapshot reopen %s: %v (serving from heap)", name, err)
			}
		}
	}
	return r.putLive(name, graph.NewLive(g), 0, 0)
}

// check validates a registration without inserting, so Put can reject
// before persisting anything.
func (r *Registry) check(name string, g *graph.Graph) error {
	if !graphNameRe.MatchString(name) {
		return fmt.Errorf("server: invalid graph name %q (want [A-Za-z0-9._-]{1,64})", name)
	}
	if g == nil || !g.Frozen() {
		return fmt.Errorf("server: graph %q must be frozen", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.graphs[name]; dup {
		return fmt.Errorf("server: graph %q already registered", name)
	}
	return nil
}

// putLive registers a live graph without touching its files: Put persists
// first, restore on startup finds the snapshot and delta log already current.
func (r *Registry) putLive(name string, l *graph.Live, epoch uint64, replayed int) error {
	if err := r.check(name, l.Graph()); err != nil {
		l.Close()
		return err
	}
	cur := l.Acquire()
	entry := &graphEntry{
		name:     name,
		live:     l,
		cur:      cur,
		base:     cur,
		engine:   r.newEngine(cur, nil),
		loadedAt: time.Now(),
		replayed: replayed,
	}
	entry.epoch.Store(epoch)
	r.mu.Lock()
	if _, dup := r.graphs[name]; dup {
		r.mu.Unlock()
		cur.Close()
		l.Close()
		return fmt.Errorf("server: graph %q already registered", name)
	}
	r.graphs[name] = entry
	r.mu.Unlock()
	return nil
}

// newEngine builds an engine over g with the registry's knobs; prev, when
// non-nil, donates its candidate cache so the new generation starts warm
// (entries are keyed by graph generation, so the handover is always safe).
func (r *Registry) newEngine(g *graph.Graph, prev *match.Engine) *match.Engine {
	opts := match.EngineOptions{Workers: r.workers, CandCacheSize: r.cache}
	if prev != nil {
		opts.SharedCache = prev.Cache()
	}
	return match.NewEngine(g, opts)
}

// Read parses a graph from rd in the named format ("tsv", "json" or
// "snapshot"), freezes it (snapshots arrive frozen) and registers it
// under name.
func (r *Registry) Read(name, format string, rd io.Reader) error {
	var (
		g   *graph.Graph
		err error
	)
	switch format {
	case "json":
		g, err = graph.ReadJSON(rd)
	case "tsv", "":
		g, err = graph.ReadTSV(rd)
	case "snapshot":
		g, err = graph.ReadSnapshot(rd)
	default:
		return fmt.Errorf("server: unknown graph format %q (want tsv, json or snapshot)", format)
	}
	if err != nil {
		return err
	}
	return r.Put(name, g)
}

// LoadFile reads a graph file (format by extension: .json is JSON,
// .fsnap a binary snapshot, anything else TSV) and registers it; used by
// the daemon's -graph flag.
func (r *Registry) LoadFile(name, path string) error {
	g, err := graph.ReadFile(path)
	if err != nil {
		return err
	}
	return r.Put(name, g)
}

// Handle is a ref-counted lease on a registered graph: one consistent
// (generation, engine) pair captured at Acquire time. Both stay valid
// until Release, even if the graph is mutated or removed from the
// registry in the meantime — a job always evaluates against the single
// generation it started on.
type Handle struct {
	r      *Registry
	entry  *graphEntry
	g      *graph.Graph
	engine *match.Engine
	once   sync.Once
}

// Graph returns the leased frozen generation.
func (h *Handle) Graph() *graph.Graph { return h.g }

// Engine returns the match engine over exactly that generation.
func (h *Handle) Engine() *match.Engine { return h.engine }

// Name returns the graph's registry name.
func (h *Handle) Name() string { return h.entry.name }

// Release drops the lease; it is idempotent. For mapped graphs this also
// drops the lease's backing-store reference — the file mapping goes away
// when the last release meets an already-removed entry.
func (h *Handle) Release() {
	h.once.Do(func() {
		h.r.mu.Lock()
		h.entry.refs--
		h.r.mu.Unlock()
		if err := h.g.Close(); err != nil && h.r.snaps != nil {
			h.r.snaps.logf("snapshot unmap %s: %v", h.entry.name, err)
		}
	})
}

// Acquire leases a registered graph by name. The lease pins the served
// generation's backing store (mmap region for mapped graphs): reads
// through the handle stay valid even if the graph is mutated or removed
// from the registry mid-job. The generation and its engine are captured
// under one lock, so they always agree.
func (r *Registry) Acquire(name string) (*Handle, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	entry, ok := r.graphs[name]
	if !ok {
		return nil, fmt.Errorf("server: graph %q not registered", name)
	}
	entry.refs++
	entry.cur.Retain()
	return &Handle{r: r, entry: entry, g: entry.cur, engine: entry.engine}, nil
}

// MutateResult reports one applied batch: the per-op counters from the
// graph layer plus the new generation's shape.
type MutateResult struct {
	// Version is the new generation's version; AddedNodes lists the
	// NodeIDs assigned to the batch's AddNode ops in op order.
	Version    uint64         `json:"version"`
	AddedNodes []graph.NodeID `json:"addedNodes,omitempty"`
	// NodesRemoved / EdgesAdded / EdgesRemoved count the batch's net
	// effect (EdgesRemoved includes RemoveNode cascades); Ops echoes the
	// batch length.
	NodesRemoved int `json:"nodesRemoved"`
	EdgesAdded   int `json:"edgesAdded"`
	EdgesRemoved int `json:"edgesRemoved"`
	Ops          int `json:"ops"`
	// Nodes and Edges are the live counts after the batch.
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// Compacting reports that this batch crossed the compaction threshold
	// and a background checkpoint was kicked off.
	Compacting bool `json:"compacting,omitempty"`
}

// Mutate applies one mutation batch to a registered graph: the batch is
// validated and merged into a new frozen generation (all-or-nothing; see
// graph.ApplyBatch), appended to the graph's delta log (fsync'd — after
// Mutate returns, a crash replays it), and a fresh engine over the new
// generation — sharing the previous engine's caches — starts serving
// subsequent Acquires. In-flight jobs keep the generation they leased.
func (r *Registry) Mutate(name string, ops []graph.Mutation) (*MutateResult, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("server: empty mutation batch for graph %q", name)
	}
	r.mu.Lock()
	entry, ok := r.graphs[name]
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("server: graph %q not registered", name)
	}
	entry.mutMu.Lock()
	defer entry.mutMu.Unlock()
	r.mu.Lock()
	removed := entry.removed
	r.mu.Unlock()
	if removed {
		return nil, fmt.Errorf("server: graph %q not registered", name)
	}

	res, err := entry.live.Apply(ops)
	if err != nil {
		r.muts.rejected.Add(1)
		return nil, err
	}
	r.muts.batches.Add(1)
	r.muts.ops.Add(int64(len(ops)))
	entry.mutOps.Add(int64(len(ops)))

	// Persist before the new generation becomes visible to new leases:
	// once a client sees post-batch results, a crash must not roll the
	// graph back past the batch. Log-write failures are counted and
	// logged, not returned — the in-memory graph has already advanced.
	if entry.wal == nil && r.snaps != nil {
		w, werr := graph.OpenWAL(r.snaps.walPath(name))
		if werr != nil {
			r.snaps.wal.appendFails.Add(1)
			r.snaps.logf("delta log open %s: %v (batch not persisted)", name, werr)
		} else {
			if w.Epoch() != entry.epoch.Load() {
				// A fresh log starts at epoch 0; align it with the entry's
				// base snapshot so restore resolves the right file.
				if rerr := w.ResetEpoch(entry.epoch.Load()); rerr != nil {
					r.snaps.logf("delta log %s: set epoch: %v", name, rerr)
				}
			}
			entry.wal = w
		}
	}
	if entry.wal != nil {
		if werr := entry.wal.Append(ops); werr != nil {
			r.snaps.wal.appendFails.Add(1)
			r.snaps.logf("delta log append %s: %v (batch not persisted)", name, werr)
		} else {
			r.snaps.wal.appends.Add(1)
		}
	}

	ng := entry.live.Acquire()
	r.swapServed(entry, ng)

	out := &MutateResult{
		Version:      res.Version,
		AddedNodes:   res.AddedNodes,
		NodesRemoved: res.NodesRemoved,
		EdgesAdded:   res.EdgesAdded,
		EdgesRemoved: res.EdgesRemoved,
		Ops:          res.Ops,
		Nodes:        ng.NumLive(),
		Edges:        ng.NumEdges(),
	}
	if r.compactAfter > 0 && entry.live.OpsSinceCompact() >= r.compactAfter && !entry.compacting {
		entry.compacting = true
		out.Compacting = true
		go r.checkpoint(entry)
	}
	if r.onMutate != nil {
		r.onMutate(name, ops, res)
	}
	return out, nil
}

// swapServed makes g (a retained generation, ownership transferred) the
// entry's served generation, with a fresh engine around the previous
// engine's caches; the replaced generation's reference is released and
// the replaced engine's matcher counters are folded into retired.
func (r *Registry) swapServed(entry *graphEntry, g *graph.Graph) {
	ne := r.newEngine(g, entry.engine)
	r.mu.Lock()
	old, oldEngine := entry.cur, entry.engine
	entry.cur, entry.engine = g, ne
	foldEngineStats(&entry.retired, oldEngine.Stats())
	r.mu.Unlock()
	if err := old.Close(); err != nil && r.snaps != nil {
		r.snaps.logf("snapshot unmap %s: %v", entry.name, err)
	}
}

// foldEngineStats adds s's matcher counters into dst. Cache and distance
// stats are deliberately excluded: successive engines share those caches,
// so the live engine already reports the cumulative numbers.
func foldEngineStats(dst *match.EngineStats, s match.EngineStats) {
	dst.ParEvals += s.ParEvals
	dst.Stats.Add(s.Stats)
}

// Checkpoint synchronously compacts a graph and persists the result: the
// accumulated copy-on-write generations re-freeze into a canonical layout
// (cache coordinates preserved, so the shared caches stay warm), the
// resurrected image is written as the next-epoch snapshot, and the delta
// log atomically resets to that epoch with just the tombstone batch.
// Restores then replay a short log over the fresh snapshot instead of the
// graph's whole mutation history.
func (r *Registry) Checkpoint(name string) error {
	r.mu.Lock()
	entry, ok := r.graphs[name]
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("server: graph %q not registered", name)
	}
	r.checkpoint(entry)
	return nil
}

func (r *Registry) checkpoint(entry *graphEntry) {
	entry.mutMu.Lock()
	defer entry.mutMu.Unlock()
	defer func() { entry.compacting = false }()
	r.mu.Lock()
	removed := entry.removed
	r.mu.Unlock()
	if removed {
		return
	}
	compacted, resurrected := entry.live.Compact()
	r.muts.compactions.Add(1)

	// The compacted generation replaces the served one; its identity (and
	// therefore every cache key) is unchanged, so the handed-over caches
	// keep hitting. The mapped base, if any, is released once outstanding
	// leases drain — move the mappedBytes charge off it now.
	ng := entry.live.Acquire()
	r.swapServed(entry, ng)
	if r.snaps != nil && entry.base != ng {
		r.snaps.unmapped(entry.base)
		entry.base = ng
	}

	if r.snaps == nil || entry.wal == nil {
		return
	}
	// Crash-atomic checkpoint: write the next-epoch snapshot, then commit
	// by atomically swapping in a delta log carrying that epoch (see the
	// wal.go format notes). A crash on either side of the log rename
	// leaves a consistent (snapshot, log) pair; the loser file is swept as
	// an orphan on the next restore.
	oldEpoch := entry.epoch.Load()
	next := oldEpoch + 1
	if !r.snaps.saveEpoch(entry.name, next, resurrected) {
		r.muts.checkpointFails.Add(1)
		return
	}
	if err := entry.wal.ResetEpoch(next, graph.TombstoneBatch(compacted.Tombstones())); err != nil {
		r.muts.checkpointFails.Add(1)
		r.snaps.wal.resetFails.Add(1)
		r.snaps.logf("delta log reset %s: %v", entry.name, err)
		r.snaps.removeEpochFile(entry.name, next)
		return
	}
	r.snaps.wal.resets.Add(1)
	entry.epoch.Store(next)
	r.snaps.removeEpochFile(entry.name, oldEpoch)
	r.muts.checkpoints.Add(1)
}

// Remove unregisters a graph and deletes its snapshot, checkpoint and
// delta-log files, if any. Existing handles remain valid; the entry's
// memory — including any file mapping — is reclaimed once the last one
// releases.
func (r *Registry) Remove(name string) error {
	r.putMu.Lock()
	defer r.putMu.Unlock()
	r.mu.Lock()
	entry, ok := r.graphs[name]
	if ok {
		entry.removed = true
		delete(r.graphs, name)
	}
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("server: graph %q not registered", name)
	}
	r.dropEntry(entry)
	if r.snaps != nil {
		r.snaps.remove(name)
		r.snaps.clearDerived(name)
	}
	return nil
}

// dropEntry releases the registry's own references for an entry already
// unlinked from the map (outstanding handles keep theirs), waiting out
// any in-flight mutation or checkpoint first.
func (r *Registry) dropEntry(entry *graphEntry) {
	entry.mutMu.Lock()
	if entry.wal != nil {
		entry.wal.Close()
		entry.wal = nil
	}
	entry.mutMu.Unlock()
	if r.snaps != nil {
		r.snaps.unmapped(entry.base)
	}
	if err := entry.cur.Close(); err != nil && r.snaps != nil {
		r.snaps.logf("snapshot unmap %s: %v", entry.name, err)
	}
	if err := entry.live.Close(); err != nil && r.snaps != nil {
		r.snaps.logf("snapshot unmap %s: %v", entry.name, err)
	}
}

// closeAll unregisters every graph and drops the registry's references,
// for server shutdown after the job manager has drained; snapshot and
// delta-log files stay on disk for the next warm start.
func (r *Registry) closeAll() {
	r.putMu.Lock()
	defer r.putMu.Unlock()
	r.mu.Lock()
	entries := make([]*graphEntry, 0, len(r.graphs))
	for name, e := range r.graphs {
		e.removed = true
		entries = append(entries, e)
		delete(r.graphs, name)
	}
	r.mu.Unlock()
	for _, e := range entries {
		r.dropEntry(e)
	}
}

// Info returns one graph's summary.
func (r *Registry) Info(name string) (GraphInfo, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	entry, ok := r.graphs[name]
	if !ok {
		return GraphInfo{}, false
	}
	return infoOf(entry), true
}

// List returns every registered graph's summary, sorted by name.
func (r *Registry) List() []GraphInfo {
	r.mu.Lock()
	infos := make([]GraphInfo, 0, len(r.graphs))
	for _, e := range r.graphs {
		infos = append(infos, infoOf(e))
	}
	r.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// infoOf renders an entry's summary; the caller holds r.mu.
func infoOf(e *graphEntry) GraphInfo {
	st := e.engine.Stats()
	foldEngineStats(&st, e.retired)
	return GraphInfo{
		Name:            e.name,
		Nodes:           e.cur.NumLive(),
		Edges:           e.cur.NumEdges(),
		Refs:            e.refs,
		LoadedAt:        e.loadedAt,
		Version:         e.cur.Version(),
		Mutations:       e.mutOps.Load(),
		ReplayedBatches: e.replayed,
		Epoch:           e.epoch.Load(),
		Memory:          e.cur.Memory(),
		Engine:          st,
	}
}
