package server

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"fairsqg/internal/graph"
)

// snapExt is the on-disk extension for binary graph snapshots; partially
// written files carry snapTmpExt until the final rename and are ignored
// (and cleaned up) by restore. walExt marks a graph's mutation delta log
// (see graph.OpenWAL); checkpointed base snapshots carry an epoch-
// qualified stem, "name@<epoch>.fsnap", which can never collide with a
// registry name ('@' fails graphNameRe).
const (
	snapExt    = ".fsnap"
	snapTmpExt = ".fsnap.tmp"
	walExt     = ".fdelta"
	walTmpExt  = ".fdelta.tmp"
)

// snapshotStore persists registered graphs as binary frozen-layout
// snapshots (graph.WriteSnapshot) in a flat directory, one file per graph
// name, and restores them into the registry on startup so a daemon
// restart does not re-parse or re-Freeze anything. Writes are atomic:
// temp file in the same directory, then rename. All operations are
// best-effort — a disk error never fails graph registration, it only
// shows up in the counters and the log.
type snapshotStore struct {
	dir    string
	logger printfLogger
	// mmap switches load from decode-to-heap to graph.OpenSnapshotMapped:
	// graphs are served straight from the page cache, restore cost is
	// O(open) instead of O(graph), and resident memory stays bounded by
	// what queries actually touch.
	mmap bool

	loads          atomic.Int64 // snapshots decoded successfully
	writes         atomic.Int64 // snapshots persisted successfully
	writeFails     atomic.Int64 // persist attempts that errored
	fallbacks      atomic.Int64 // corrupt/unreadable snapshots skipped on restore
	tmpCleaned     atomic.Int64 // partial .tmp files removed on restore
	orphansCleaned atomic.Int64 // stale checkpoint/log files removed on restore
	loadNanos      atomic.Int64 // cumulative decode wall time
	mmapLoads      atomic.Int64 // snapshots opened memory-mapped
	mappedBytes    atomic.Int64 // bytes currently memory-mapped via this store

	wal walCounters
}

// walCounters aggregates the delta-log counters for the /metrics
// storage.wal section. The registry bumps the append pair on the mutate
// path; the rest belong to restore and checkpointing.
type walCounters struct {
	appends       atomic.Int64 // batches fsync'd to a delta log
	appendFails   atomic.Int64 // append or log-open failures (batch not persisted)
	resets        atomic.Int64 // checkpoint log rotations
	resetFails    atomic.Int64 // failed rotations (checkpoint aborted)
	replays       atomic.Int64 // logs replayed on restore
	replayBatches atomic.Int64 // batches applied from logs on restore
	replayRejects atomic.Int64 // replayed batches the graph refused (replay stops there)
	truncations   atomic.Int64 // torn tails truncated by restore's repair
	unusable      atomic.Int64 // logs with an unreadable header, dropped on restore
}

func (c *walCounters) counters() map[string]any {
	return map[string]any{
		"appends":       c.appends.Load(),
		"appendFails":   c.appendFails.Load(),
		"resets":        c.resets.Load(),
		"resetFails":    c.resetFails.Load(),
		"replays":       c.replays.Load(),
		"replayBatches": c.replayBatches.Load(),
		"replayRejects": c.replayRejects.Load(),
		"truncations":   c.truncations.Load(),
		"unusable":      c.unusable.Load(),
	}
}

// newSnapshotStore creates dir if needed and returns a store over it.
func newSnapshotStore(dir string, mmap bool, logger printfLogger) (*snapshotStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: snapshot dir: %w", err)
	}
	return &snapshotStore{dir: dir, mmap: mmap, logger: logger}, nil
}

// path maps a registry name to its snapshot file. Names already match
// graphNameRe ([A-Za-z0-9._-]{1,64}) and gain an extension, so the result
// is always a plain file inside dir.
func (st *snapshotStore) path(name string) string {
	return filepath.Join(st.dir, name+snapExt)
}

// epochPath maps (name, epoch) to the base-snapshot file the graph's
// delta log extends: the plain path for epoch 0 (the original upload),
// an '@'-qualified one for checkpoints.
func (st *snapshotStore) epochPath(name string, epoch uint64) string {
	if epoch == 0 {
		return st.path(name)
	}
	return filepath.Join(st.dir, fmt.Sprintf("%s@%d%s", name, epoch, snapExt))
}

// walPath maps a registry name to its mutation delta log.
func (st *snapshotStore) walPath(name string) string {
	return filepath.Join(st.dir, name+walExt)
}

func (st *snapshotStore) logf(format string, args ...any) {
	if st.logger != nil {
		st.logger.Printf(format, args...)
	}
}

// save writes g's snapshot atomically under name, reporting success.
// Errors are counted and logged, not returned: persistence is an
// optimization, never a reason to reject a registration.
func (st *snapshotStore) save(name string, g *graph.Graph) bool {
	return st.saveTo(name, st.path(name), g)
}

// saveEpoch writes g as the epoch-qualified base snapshot for name — the
// first half of a checkpoint, before the delta-log rotation commits it.
func (st *snapshotStore) saveEpoch(name string, epoch uint64, g *graph.Graph) bool {
	return st.saveTo(name, st.epochPath(name, epoch), g)
}

func (st *snapshotStore) saveTo(name, path string, g *graph.Graph) bool {
	tmp := path + ".tmp" // ends in snapTmpExt
	err := func() error {
		f, err := os.Create(tmp)
		if err != nil {
			return err
		}
		if err := graph.WriteSnapshot(f, g); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		return os.Rename(tmp, path)
	}()
	if err != nil {
		st.writeFails.Add(1)
		os.Remove(tmp)
		st.logf("snapshot save %s: %v", name, err)
		return false
	}
	st.writes.Add(1)
	return true
}

// load materializes the epoch-0 snapshot for name; loadFrom picks the
// base file for any epoch. In mmap mode the graph is opened mapped.
func (st *snapshotStore) load(name string) (*graph.Graph, error) {
	return st.loadFrom(name, 0)
}

func (st *snapshotStore) loadFrom(name string, epoch uint64) (*graph.Graph, error) {
	start := time.Now()
	path := st.epochPath(name, epoch)
	var g *graph.Graph
	var err error
	if st.mmap {
		g, err = graph.OpenSnapshotMapped(path)
	} else {
		g, err = graph.ReadSnapshotFile(path)
	}
	if err != nil {
		return nil, err
	}
	if g.Mapped() {
		st.mmapLoads.Add(1)
		st.mappedBytes.Add(g.MappedBytes())
	}
	st.loads.Add(1)
	st.loadNanos.Add(int64(time.Since(start)))
	return g, nil
}

// unmapped records that a mapped graph produced by load released its last
// reference (the registry calls it from entry teardown).
func (st *snapshotStore) unmapped(g *graph.Graph) {
	if g.Mapped() {
		st.mappedBytes.Add(-g.MappedBytes())
	}
}

// remove deletes name's snapshot file (no-op if absent).
func (st *snapshotStore) remove(name string) {
	if err := os.Remove(st.path(name)); err != nil && !os.IsNotExist(err) {
		st.logf("snapshot remove %s: %v", name, err)
	}
}

// removeEpochFile deletes one epoch-qualified base snapshot; epoch 0 (the
// plain snapshot) is handled too, so checkpointing off the original
// upload retires it.
func (st *snapshotStore) removeEpochFile(name string, epoch uint64) {
	if err := os.Remove(st.epochPath(name, epoch)); err != nil && !os.IsNotExist(err) {
		st.logf("snapshot remove %s@%d: %v", name, epoch, err)
	}
}

// clearDerived deletes every file derived from name's mutation history —
// the delta log, its rotation temp, and all epoch-qualified checkpoints —
// leaving any plain snapshot alone. Put calls it so a fresh registration
// can never have a stale log replayed over it; Remove calls it after
// deleting the plain snapshot so nothing of the name survives.
func (st *snapshotStore) clearDerived(name string) {
	for _, p := range []string{st.walPath(name), st.walPath(name) + ".tmp"} {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			st.logf("remove %s: %v", p, err)
		}
	}
	matches, err := filepath.Glob(filepath.Join(st.dir, name+"@*"+snapExt))
	if err != nil {
		return
	}
	for _, p := range matches {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			st.logf("remove %s: %v", p, err)
		}
	}
}

// restoreFiles is what the directory scan found for one registry name.
type restoreFiles struct {
	plain  bool            // name.fsnap (epoch 0)
	epochs map[uint64]bool // name@<k>.fsnap checkpoints
	wal    bool            // name.fdelta
}

// restore scans the directory and rebuilds the registry: partial .tmp
// files are deleted, and for every name the delta log (recovered with
// torn tails truncated) names the base snapshot epoch its batches extend;
// that snapshot is loaded and the batches are replayed over it, so the
// graph comes back at its exact pre-crash state — including in mapped
// mode, where the base is served from the page cache and the replayed
// generations sit on top copy-on-write. Snapshot files the log does not
// name (a checkpoint that lost the race with a crash) and logs without a
// base are orphans: deleted and counted. A snapshot that fails to decode
// (bit rot, version skew) is skipped and counted — the caller falls back
// to the original source format, and the next successful registration
// overwrites the bad file. Returns the names restored, sorted.
func (st *snapshotStore) restore(reg *Registry) []string {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		st.logf("snapshot restore: %v", err)
		return nil
	}
	byName := map[string]*restoreFiles{}
	get := func(name string) *restoreFiles {
		f := byName[name]
		if f == nil {
			f = &restoreFiles{epochs: map[uint64]bool{}}
			byName[name] = f
		}
		return f
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		fn := e.Name()
		switch {
		case strings.HasSuffix(fn, snapTmpExt), strings.HasSuffix(fn, walTmpExt):
			if err := os.Remove(filepath.Join(st.dir, fn)); err == nil {
				st.tmpCleaned.Add(1)
				st.logf("snapshot restore: removed partial %s", fn)
			}
		case strings.HasSuffix(fn, walExt):
			if name := strings.TrimSuffix(fn, walExt); graphNameRe.MatchString(name) {
				get(name).wal = true
			}
		case strings.HasSuffix(fn, snapExt):
			stem := strings.TrimSuffix(fn, snapExt)
			if i := strings.IndexByte(stem, '@'); i >= 0 {
				name, es := stem[:i], stem[i+1:]
				epoch, err := strconv.ParseUint(es, 10, 64)
				if err == nil && epoch > 0 && graphNameRe.MatchString(name) {
					get(name).epochs[epoch] = true
				}
			} else if graphNameRe.MatchString(stem) {
				get(stem).plain = true
			}
		}
	}

	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)

	var restored []string
	for _, name := range names {
		if st.restoreOne(reg, name, byName[name]) {
			restored = append(restored, name)
		}
	}
	return restored
}

// restoreOne rebuilds one name from its files, reporting success.
func (st *snapshotStore) restoreOne(reg *Registry, name string, f *restoreFiles) bool {
	var rep *graph.WALReplay
	if f.wal {
		var err error
		rep, err = graph.ReplayWAL(st.walPath(name), true)
		if err != nil {
			// Unreadable header: the log never held a recoverable batch
			// (appends only follow a complete header). Drop it so the next
			// mutation starts a clean one.
			st.wal.unusable.Add(1)
			st.logf("delta log %s: %v (removed; restoring from snapshot alone)", name, err)
			os.Remove(st.walPath(name))
			rep = nil
		} else {
			st.wal.replays.Add(1)
			if rep.Truncated {
				st.wal.truncations.Add(1)
				st.logf("delta log %s: torn tail, dropped %d bytes", name, rep.TruncatedBytes)
			}
		}
	}
	baseEpoch := uint64(0)
	if rep != nil {
		baseEpoch = rep.Epoch
	} else if !f.plain && len(f.epochs) > 0 {
		// No usable log but checkpoints exist and the plain snapshot is
		// gone: the highest checkpoint is the newest complete image.
		for e := range f.epochs {
			if e > baseEpoch {
				baseEpoch = e
			}
		}
	}
	haveBase := f.plain
	if baseEpoch > 0 {
		haveBase = f.epochs[baseEpoch]
	}
	// Sweep orphans: every snapshot that is not the base, and (when the
	// base itself is missing) the log too — nothing can extend it.
	if f.plain && baseEpoch != 0 {
		st.removeEpochFile(name, 0)
		st.orphansCleaned.Add(1)
	}
	for e := range f.epochs {
		if e != baseEpoch || !haveBase {
			st.removeEpochFile(name, e)
			st.orphansCleaned.Add(1)
		}
	}
	if !haveBase {
		if f.wal {
			os.Remove(st.walPath(name))
			st.orphansCleaned.Add(1)
		}
		if baseEpoch != 0 || f.plain {
			st.fallbacks.Add(1)
			st.logf("snapshot restore %s: base epoch %d missing (will fall back to source format)", name, baseEpoch)
		}
		return false
	}

	g, err := st.loadFrom(name, baseEpoch)
	if err != nil {
		st.fallbacks.Add(1)
		st.logf("snapshot restore %s: %v (will fall back to source format)", name, err)
		return false
	}
	l := graph.NewLive(g)
	replayed := 0
	if rep != nil {
		for i, b := range rep.Batches {
			if _, err := l.Apply(b); err != nil {
				st.wal.replayRejects.Add(1)
				st.logf("delta log %s: batch %d refused: %v (stopping at last good state)", name, i, err)
				break
			}
			replayed++
			st.wal.replayBatches.Add(1)
		}
	}
	if err := reg.putLive(name, l, baseEpoch, replayed); err != nil {
		st.logf("snapshot restore %s: %v", name, err)
		return false
	}
	return true
}

// counters renders the store's state for the /metrics "storage" section.
func (st *snapshotStore) counters() map[string]any {
	return map[string]any{
		"loads":          st.loads.Load(),
		"writes":         st.writes.Load(),
		"writeFails":     st.writeFails.Load(),
		"fallbacks":      st.fallbacks.Load(),
		"tmpCleaned":     st.tmpCleaned.Load(),
		"orphansCleaned": st.orphansCleaned.Load(),
		"loadMs":         float64(st.loadNanos.Load()) / 1e6,
		"mmapLoads":      st.mmapLoads.Load(),
		"mappedBytes":    st.mappedBytes.Load(),
	}
}
