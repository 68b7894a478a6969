package server

import (
	"errors"
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
// logs and metrics keys (and so the snapshot store's '@'-qualified file
// names can never collide with a registry name).
var graphNameRe = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// graphEntry is the memory half of one registered graph's lifecycle
// (absent → serving(generation) → closed), beside the disk half in files.
// The graph lives behind a graph.Live mutation head: cur is the generation
// served (the registry holds one backing reference to it), engine the match
// engine over exactly that generation. A batch produces the next generation
// and a fresh engine with an empty store: what the old one kept was true of
// the old generation only, and dies with it.
type graphEntry struct {
	name     string
	live     *graph.Live
	loadedAt time.Time
	replayed int          // delta-log batches replayed at restore
	mutOps   atomic.Int64 // mutation ops applied since registration

	// Guarded by Registry.mu; cur and engine are set at registration and
	// changed by swapServed only. retired sums the matcher counters and
	// candidate-list lookups of replaced engines, each folded in once its
	// last lease is released; leased counts the leases per engine, so
	// /metrics never loses work done on an old handle.
	cur     *graph.Graph
	engine  *match.Engine
	retired match.EngineStats
	leased  map[*match.Engine]int

	// mutMu, the writer lock, serializes mutate, checkpoint and unregister
	// and guards the fields below; Acquire and Release never take it.
	mutMu      sync.Mutex
	files      *graphFiles // nil without a snapshot store
	compacting bool        // a background checkpoint is pending
	removed    bool        // set by unregister, read by lockEntry
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
	// the candidate-list lookups — the numbers /metrics scrapes per graph.
	// Both of engines retired by mutations are folded in; Shared is the
	// live engine's store alone.
	Engine match.EngineStats `json:"engine"`
}

// mutationStats is the /metrics storage.mutations section (see snapCounters).
type mutationStats struct {
	batches         atomic.Int64 // batches applied successfully
	ops             atomic.Int64 // individual mutations inside them
	rejected        atomic.Int64 // batches refused by validation
	compactions     atomic.Int64 // Live.Compact runs
	checkpoints     atomic.Int64 // compactions fully persisted (snapshot + log reset)
	checkpointFails atomic.Int64 // compactions whose persistence failed
	chunkBytes      atomic.Int64 // table chunks the batches cloned or added (graph.Touched.ChunkBytes)
}

// Registry holds named, frozen graphs and hands out ref-counted handles.
// Loading happens once per graph; every request afterwards shares the
// frozen structure and the per-graph match engine.
//
// Lock order: putMu → an entry's mutMu → mu, never the reverse. putMu and
// mutMu may be held across file I/O; mu never is.
//
// Teardown of snapshot-backed resources is delegated to the graph's own
// backing-store reference count: the registry holds one reference per
// entry (dropped by Remove or closeAll), and every Handle holds one more
// (Acquire pairs graph.Retain with Release's graph.Close). For mapped
// graphs the underlying file mapping is therefore unmapped exactly when
// the entry is gone AND the last in-flight job releases its handle; for
// heap graphs all of this is a no-op.
type Registry struct {
	mu     sync.Mutex
	graphs map[string]*graphEntry
	// putMu serializes registration and removal of names, so register's
	// one duplicate check stays true while it persists or loads the graph.
	putMu sync.Mutex
	// compactAfter, when > 0, triggers a background checkpoint once a
	// graph accumulates that many mutation ops since its last compaction.
	compactAfter int
	// snaps, when set, is the disk half (see graphFiles).
	snaps *snapshotStore
	muts  mutationStats
	logSink
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{graphs: make(map[string]*graphEntry)}
}

// closeGraph drops one backing reference, logging a failed unmap.
func (r *Registry) closeGraph(name string, c io.Closer) {
	if err := c.Close(); err != nil {
		r.logf("snapshot unmap %s: %v", name, err)
	}
}

// Put registers a frozen graph under name, rejecting duplicates, after
// persisting it when a snapshot store is attached (snapshotStore.create).
func (r *Registry) Put(name string, g *graph.Graph) error {
	if g == nil || !g.Frozen() {
		return fmt.Errorf("server: graph %q must be frozen", name)
	}
	return r.register(name, func() (*graphEntry, error) {
		files, g := r.snaps.create(name, g)
		return &graphEntry{live: graph.NewLive(g), files: files}, nil
	})
}

// register is the one way a graph enters the registry: it checks the name
// once, has source produce the entry's live graph and files (Put persists
// an upload, restore opens what is on disk) and links the entry.
func (r *Registry) register(name string, source func() (*graphEntry, error)) error {
	r.putMu.Lock()
	defer r.putMu.Unlock()
	if !graphNameRe.MatchString(name) {
		return fmt.Errorf("server: invalid graph name %q (want [A-Za-z0-9._-]{1,64})", name)
	}
	if _, dup := r.Info(name); dup {
		return fmt.Errorf("%w: %q", ErrGraphExists, name)
	}
	entry, err := source()
	if err != nil {
		return err
	}
	entry.name, entry.loadedAt = name, time.Now()
	entry.cur = entry.live.Acquire()
	entry.engine = match.NewEngine(entry.cur, match.EngineOptions{})
	r.mu.Lock()
	r.graphs[name] = entry
	r.mu.Unlock()
	return nil
}

// graphReaders are the upload formats; every reader returns a frozen graph.
var graphReaders = map[string]func(io.Reader) (*graph.Graph, error){
	"":         graph.ReadTSV,
	"tsv":      graph.ReadTSV,
	"json":     graph.ReadJSON,
	"snapshot": graph.ReadSnapshot,
}

// Read parses a graph from rd in the named format ("tsv", the default,
// "json" or "snapshot") and registers it under name.
func (r *Registry) Read(name, format string, rd io.Reader) error {
	read, ok := graphReaders[format]
	if !ok {
		return fmt.Errorf("server: unknown graph format %q (want tsv, json or snapshot)", format)
	}
	g, err := read(rd)
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
		if h.entry.leased[h.engine]--; h.entry.leased[h.engine] == 0 {
			delete(h.entry.leased, h.engine)
			if h.engine != h.entry.engine {
				addEngine(&h.entry.retired, h.engine)
			}
		}
		h.r.mu.Unlock()
		h.r.closeGraph(h.entry.name, h.g)
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
		return nil, unknownGraph(name)
	}
	if entry.leased == nil {
		entry.leased = map[*match.Engine]int{}
	}
	entry.leased[entry.engine]++
	entry.cur.Retain()
	return &Handle{r: r, entry: entry, g: entry.cur, engine: entry.engine}, nil
}

func unknownGraph(name string) error { return fmt.Errorf("%w: %q", ErrUnknownGraph, name) }

// lockEntry looks name up and takes the entry's writer lock (the caller
// unlocks it), or reports the graph gone — unregistered, maybe meanwhile.
func (r *Registry) lockEntry(name string) (*graphEntry, error) {
	r.mu.Lock()
	entry := r.graphs[name]
	r.mu.Unlock()
	if entry == nil {
		return nil, unknownGraph(name)
	}
	entry.mutMu.Lock()
	if entry.removed {
		entry.mutMu.Unlock()
		return nil, unknownGraph(name)
	}
	return entry, nil
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
	// Touched sizes what the merge rebuilt for the batch (graph.Touched).
	Touched graph.Touched `json:"touched"`
	// Nodes and Edges are the live counts after the batch.
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// Compacting reports that this batch crossed the compaction threshold
	// and a background checkpoint was kicked off.
	Compacting bool `json:"compacting,omitempty"`
}

// Mutate applies one mutation batch to a registered graph, in commit
// order: the batch is validated and merged into the next frozen generation
// (all-or-nothing; see graph.ApplyBatch), appended to the graph's delta log
// (fsync'd — after Mutate returns, a crash replays it), and only then does
// the generation become current and serve subsequent Acquires; in-flight
// jobs keep the one they leased. A batch the log refuses is not applied:
// the error wraps errNotDurable and nothing about the graph has changed.
func (r *Registry) Mutate(name string, ops []graph.Mutation) (*MutateResult, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("server: empty mutation batch for graph %q", name)
	}
	entry, err := r.lockEntry(name)
	if err != nil {
		return nil, err
	}
	defer entry.mutMu.Unlock()

	res, err := entry.live.ApplyCommit(ops, func() error { return entry.files.append(ops) })
	if err != nil {
		if errors.Is(err, errNotDurable) {
			r.logf("mutate %s: %v", name, err)
		} else {
			r.muts.rejected.Add(1)
		}
		return nil, err
	}
	r.muts.batches.Add(1)
	r.muts.ops.Add(int64(len(ops)))
	r.muts.chunkBytes.Add(res.Touched.ChunkBytes)
	entry.mutOps.Add(int64(len(ops)))
	ng := r.swapServed(entry)

	out := &MutateResult{
		Version:      res.Version,
		AddedNodes:   res.AddedNodes,
		NodesRemoved: res.NodesRemoved,
		EdgesAdded:   res.EdgesAdded,
		EdgesRemoved: res.EdgesRemoved,
		Ops:          res.Ops,
		Touched:      res.Touched,
		Nodes:        ng.NumLive(),
		Edges:        ng.NumEdges(),
	}
	if r.compactAfter > 0 && entry.live.OpsSinceCompact() >= r.compactAfter && !entry.compacting {
		entry.compacting = true
		out.Compacting = true
		go r.Checkpoint(name)
	}
	return out, nil
}

// swapServed installs the live graph's current generation as the one the
// entry serves, behind a fresh engine — the only place cur, engine and
// retired change after registration. The caller holds the writer lock and
// has already made the generation durable.
func (r *Registry) swapServed(entry *graphEntry) *graph.Graph {
	g := entry.live.Acquire()
	ne := match.NewEngine(g, match.EngineOptions{})
	r.mu.Lock()
	old, oldEngine := entry.cur, entry.engine
	entry.cur, entry.engine = g, ne
	if entry.leased[oldEngine] == 0 {
		addEngine(&entry.retired, oldEngine) // else on its last Release
	}
	r.mu.Unlock()
	r.closeGraph(entry.name, old)
	return g
}

// Checkpoint synchronously compacts a graph and persists the result: the
// accumulated copy-on-write generations re-freeze into a canonical layout
// (a mapped base is released once outstanding leases drain), and the
// graph's files rotate (graphFiles.rotate), so a restore replays a short
// log over a fresh snapshot instead of the whole mutation history.
func (r *Registry) Checkpoint(name string) error {
	entry, err := r.lockEntry(name)
	if err != nil {
		return err
	}
	defer entry.mutMu.Unlock()
	entry.compacting = false
	compacted, resurrected := entry.live.Compact()
	r.muts.compactions.Add(1)
	r.swapServed(entry)
	switch rotated, err := entry.files.rotate(resurrected, compacted.Tombstones()); {
	case err != nil:
		r.muts.checkpointFails.Add(1)
		r.logf("checkpoint %s: %v", name, err)
	case rotated:
		r.muts.checkpoints.Add(1)
	}
	return nil
}

// Remove unregisters a graph and deletes its files, if any. Existing
// handles remain valid; the entry's memory — including any file mapping —
// is reclaimed once the last one releases.
func (r *Registry) Remove(name string) error {
	return r.unregister(name, false)
}

// unregister is the one way a graph leaves the registry: it waits out any
// in-flight mutation or checkpoint, unlinks the name, releases the
// registry's own references (outstanding handles keep theirs) and closes
// the files, deleting them unless keepFiles.
func (r *Registry) unregister(name string, keepFiles bool) error {
	r.putMu.Lock()
	defer r.putMu.Unlock()
	entry, err := r.lockEntry(name)
	if err != nil {
		return err
	}
	defer entry.mutMu.Unlock()
	entry.removed = true
	r.mu.Lock()
	delete(r.graphs, name)
	r.mu.Unlock()
	r.closeGraph(name, entry.cur)
	r.closeGraph(name, entry.live)
	entry.files.close(keepFiles)
	return nil
}

// closeAll unregisters every graph at server shutdown, once the job
// manager has drained; the files stay on disk for the next warm start.
func (r *Registry) closeAll() {
	for _, info := range r.List() {
		r.unregister(info.Name, true)
	}
}

// mappedBytes is the storage.snapshots.mappedBytes gauge: the bytes the
// served generations keep mapped (a mutated generation still sits on its
// mapped base; a compacted one is heap).
func (r *Registry) mappedBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, e := range r.graphs {
		n += e.cur.MappedBytes()
	}
	return n
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

// addEngine adds eng's matcher counters and candidate-list lookups to dst.
func addEngine(dst *match.EngineStats, eng *match.Engine) {
	st := eng.Stats()
	dst.Stats.Add(st.Stats)
	dst.Cache.Hits += st.Cache.Hits
	dst.Cache.Misses += st.Cache.Misses
}

// infoOf renders an entry's summary; the caller holds r.mu.
func infoOf(e *graphEntry) GraphInfo {
	st := e.engine.Stats()
	st.Stats.Add(e.retired.Stats)
	st.Cache.Hits += e.retired.Cache.Hits
	st.Cache.Misses += e.retired.Cache.Misses
	refs := 0
	for eng, n := range e.leased {
		if refs += n; eng != e.engine {
			addEngine(&st, eng) // retired, still leased
		}
	}
	return GraphInfo{
		Name:            e.name,
		Nodes:           e.cur.NumLive(),
		Edges:           e.cur.NumEdges(),
		Refs:            refs,
		LoadedAt:        e.loadedAt,
		Version:         e.cur.Version(),
		Mutations:       e.mutOps.Load(),
		ReplayedBatches: e.replayed,
		Epoch:           e.files.baseEpoch(),
		Memory:          e.cur.Memory(),
		Engine:          st,
	}
}
