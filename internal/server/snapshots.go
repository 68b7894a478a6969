package server

import (
	"errors"
	"fmt"
	"io/fs"
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
// written files carry snapTmpExt until the final rename and are cleaned up
// by restore. walExt marks a graph's mutation delta log (graph.OpenWAL).
// Checkpointed base snapshots carry an epoch-qualified stem,
// "name@<epoch>.fsnap", which can never collide with a registry name.
const (
	snapExt    = ".fsnap"
	snapTmpExt = ".fsnap.tmp"
	walExt     = ".fdelta"
	walTmpExt  = ".fdelta.tmp"
)

// snapshotStore is the disk half of the registry: a flat directory holding,
// per registered graph, a binary frozen-layout base snapshot and the delta
// log of the mutation batches applied since, restored on startup so a
// restart does not re-parse or re-Freeze anything. The protocol — which
// "name[@epoch].fsnap" a "name.fdelta" extends, in what order they are
// written, what is an orphan — lives in this file only: graphFiles carries
// it for one registered graph, restore inverts it.
type snapshotStore struct {
	dir string
	logSink
	// mmap switches load from decode-to-heap to graph.OpenSnapshotMapped:
	// restore is O(open), not O(graph), and resident memory stays bounded
	// by what queries actually touch.
	mmap bool

	snapCounters
	loadNanos atomic.Int64 // cumulative load wall time (/metrics: loadMs)
	wal       walCounters
}

// snapCounters is the /metrics storage.snapshots section, rendered by
// renderCounters: a counter is declared here and nowhere else.
type snapCounters struct {
	loads          atomic.Int64 // snapshots decoded successfully
	writes         atomic.Int64 // snapshots persisted successfully
	writeFails     atomic.Int64 // persist attempts that errored
	fallbacks      atomic.Int64 // corrupt/unreadable snapshots skipped on restore
	tmpCleaned     atomic.Int64 // partial .tmp files removed on restore
	orphansCleaned atomic.Int64 // stale checkpoint/log files removed on restore
	mmapLoads      atomic.Int64 // snapshots opened memory-mapped
}

// walCounters is the /metrics storage.wal section (see snapCounters).
type walCounters struct {
	appends       atomic.Int64 // batches fsync'd to a delta log
	appendFails   atomic.Int64 // append or log-open failures (batch refused)
	resets        atomic.Int64 // checkpoint log rotations
	resetFails    atomic.Int64 // failed rotations (checkpoint aborted)
	replays       atomic.Int64 // logs replayed on restore
	replayBatches atomic.Int64 // batches applied from logs on restore
	replayRejects atomic.Int64 // replayed batches the graph refused (replay stops there)
	truncations   atomic.Int64 // torn tails truncated by restore's repair
	unusable      atomic.Int64 // logs with an unreadable header, dropped on restore
}

// newSnapshotStore creates dir if needed and returns a store over it.
func newSnapshotStore(dir string, mmap bool, logger printfLogger) (*snapshotStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: snapshot dir: %w", err)
	}
	return &snapshotStore{dir: dir, mmap: mmap, logSink: logSink{logger}}, nil
}

// snapPath maps (name, epoch) to a base-snapshot file: "name.fsnap" for
// epoch 0 (the upload), "name@<epoch>.fsnap" for checkpoints. Names match
// graphNameRe, so the result is always a plain file inside dir.
func (st *snapshotStore) snapPath(name string, epoch uint64) string {
	if epoch > 0 {
		name = fmt.Sprintf("%s@%d", name, epoch)
	}
	return filepath.Join(st.dir, name+snapExt)
}

// walPath maps a registry name to its mutation delta log.
func (st *snapshotStore) walPath(name string) string {
	return filepath.Join(st.dir, name+walExt)
}

// save writes g as name's epoch base snapshot, atomically: temp file in
// the same directory, fsync, rename. Counted here, logged by the caller.
func (st *snapshotStore) save(name string, epoch uint64, g *graph.Graph) error {
	path := st.snapPath(name, epoch)
	tmp := path + ".tmp" // ends in snapTmpExt
	f, err := os.Create(tmp)
	if err == nil {
		if err = graph.WriteSnapshot(f, g); err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		st.writeFails.Add(1)
		os.Remove(tmp)
		return fmt.Errorf("snapshot save %s: %w", filepath.Base(path), err)
	}
	st.writes.Add(1)
	return nil
}

// load materializes name's epoch base snapshot, mapped in mmap mode.
func (st *snapshotStore) load(name string, epoch uint64) (*graph.Graph, error) {
	start := time.Now()
	open := graph.ReadSnapshotFile
	if st.mmap {
		open = graph.OpenSnapshotMapped
	}
	g, err := open(st.snapPath(name, epoch))
	if err != nil {
		return nil, err
	}
	if g.Mapped() {
		st.mmapLoads.Add(1)
	}
	st.loads.Add(1)
	st.loadNanos.Add(int64(time.Since(start)))
	return g, nil
}

// remove deletes one file of the store (no-op if absent).
func (st *snapshotStore) remove(path string) {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		st.logf("remove %s: %v", filepath.Base(path), err)
	}
}

// clear deletes every file of a name: base snapshots of any epoch, the
// delta log and its rotation temp.
func (st *snapshotStore) clear(name string) {
	checkpoints, _ := filepath.Glob(st.snapPath(name+"@*", 0))
	for _, p := range append(checkpoints, st.snapPath(name, 0), st.walPath(name), st.walPath(name)+".tmp") {
		st.remove(p)
	}
}

// graphFiles is the disk half of one registered graph: the epoch of its
// base snapshot and the delta log extending it, used by the entry under
// its writer lock (baseEpoch excepted); a registry without a store passes
// the nil receiver, which persists nothing. The operations are the whole
// protocol: create (upload), open (restore), append, rotate, close.
type graphFiles struct {
	st    *snapshotStore
	name  string
	epoch atomic.Uint64
	wal   *graph.WALWriter // opened by open or the first append; nil after a failed one
}

// create persists an uploaded graph as name's epoch-0 base, after deleting
// whatever an earlier incarnation of the name left behind (a stale log
// must never be replayed over it), and returns the graph to serve: in
// mapped mode the mapped reopen of the file just written. Persistence
// never rejects a registration: if it fails the upload itself serves.
func (st *snapshotStore) create(name string, g *graph.Graph) (*graphFiles, *graph.Graph) {
	if st == nil {
		return nil, g
	}
	st.clear(name)
	if err := st.save(name, 0, g); err != nil {
		st.logf("%v", err)
	} else if st.mmap {
		if mg, err := st.load(name, 0); err == nil {
			g = mg
		} else {
			st.logf("snapshot reopen %s: %v (serving from heap)", name, err)
		}
	}
	return &graphFiles{st: st, name: name}, g
}

// openLog is the one way the delta log is opened for writing: repair (a
// torn tail is truncated to the last intact frame), then open. It returns
// what the log holds — nil when it is unreadable, or absent and created.
func (f *graphFiles) openLog() (*graph.WALReplay, error) {
	path := f.st.walPath(f.name)
	rep, err := graph.ReplayWAL(path, true)
	if err == nil || errors.Is(err, fs.ErrNotExist) {
		f.wal, err = graph.OpenWAL(path)
	}
	return rep, err
}

// errNotDurable marks a batch the delta log did not take: it must not be
// applied, and the HTTP layer answers 503.
var errNotDurable = errors.New("server: mutation batch not durable")

// append makes one batch durable: fsync'd to the delta log, which is
// opened first if need be and, when that created it, stamped with the
// epoch of the base it extends. On any failure the writer is discarded —
// the next append goes through openLog again rather than writing after a
// possibly partial frame — and the error wraps errNotDurable.
func (f *graphFiles) append(ops []graph.Mutation) (err error) {
	if f == nil {
		return nil
	}
	if f.wal == nil {
		if _, err = f.openLog(); err == nil && f.wal.Epoch() != f.epoch.Load() {
			err = f.wal.ResetEpoch(f.epoch.Load())
		}
	}
	if err == nil {
		err = f.wal.Append(ops)
	}
	if err != nil {
		f.st.wal.appendFails.Add(1)
		f.close(true)
		return fmt.Errorf("%w: delta log %s%s: %v", errNotDurable, f.name, walExt, err)
	}
	f.st.wal.appends.Add(1)
	return nil
}

// rotate is the crash-atomic half of a checkpoint: write image (the
// compacted graph with its tombstoned slots resurrected, the only form a
// snapshot can hold) as the next-epoch base, commit by atomically swapping
// in a delta log that carries that epoch and re-tombstones dead (see
// wal.go), then delete the old base. A crash on either side of the log
// rename leaves a consistent (snapshot, log) pair and an orphan for the
// next restore to sweep. With no log open the pair on disk already replays
// to this graph: nothing rotates.
func (f *graphFiles) rotate(image *graph.Graph, dead []graph.NodeID) (rotated bool, err error) {
	if f == nil || f.wal == nil {
		return false, nil
	}
	old := f.epoch.Load()
	if err := f.st.save(f.name, old+1, image); err != nil {
		return false, err
	}
	if err := f.wal.ResetEpoch(old+1, graph.TombstoneBatch(dead)); err != nil {
		f.st.wal.resetFails.Add(1)
		f.st.remove(f.st.snapPath(f.name, old+1))
		return false, fmt.Errorf("delta log reset: %w", err)
	}
	f.st.wal.resets.Add(1)
	f.epoch.Store(old + 1)
	f.st.remove(f.st.snapPath(f.name, old))
	return true, nil
}

// baseEpoch is GraphInfo's snapshotEpoch; safe without the writer lock.
func (f *graphFiles) baseEpoch() uint64 {
	if f == nil {
		return 0
	}
	return f.epoch.Load()
}

// close releases the log writer and, unless keepFiles (the graph is to
// come back on the next start), deletes the name's files.
func (f *graphFiles) close(keepFiles bool) {
	if f == nil {
		return
	}
	if f.wal != nil {
		f.wal.Close()
		f.wal = nil
	}
	if !keepFiles {
		f.st.clear(f.name)
	}
}

// restoreFiles is what the directory scan found for one registry name.
type restoreFiles struct {
	bases map[uint64]bool // base snapshots by epoch: name.fsnap is 0, name@<k>.fsnap is k
	wal   bool            // name.fdelta
}

// restore scans the directory and rebuilds the registry: partial .tmp
// files are deleted and every name with files goes through open. A name
// that cannot be opened (bit rot, version skew, a missing base) is skipped
// and logged — the caller falls back to the source format, and the next
// registration of the name overwrites the bad file. Returns the names
// restored, sorted.
func (st *snapshotStore) restore(reg *Registry) []string {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		st.logf("snapshot restore: %v", err)
		return nil
	}
	byName := map[string]*restoreFiles{}
	get := func(name string) *restoreFiles {
		if byName[name] == nil {
			byName[name] = &restoreFiles{bases: map[uint64]bool{}}
		}
		return byName[name]
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
			name, es, qualified := strings.Cut(strings.TrimSuffix(fn, snapExt), "@")
			var epoch uint64
			if qualified {
				if epoch, err = strconv.ParseUint(es, 10, 64); err != nil || epoch == 0 {
					continue
				}
			}
			if graphNameRe.MatchString(name) {
				get(name).bases[epoch] = true
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
		err := reg.register(name, func() (*graphEntry, error) { return st.open(name, byName[name]) })
		if err != nil {
			st.logf("snapshot restore %s: %v", name, err)
			continue
		}
		restored = append(restored, name)
	}
	return restored
}

// open rebuilds one name from its files: the delta log (see openLog) names
// the epoch of the base snapshot its batches extend; that snapshot is
// loaded and the batches are replayed over it, so the graph comes back at
// its exact pre-crash state — in mapped mode the replayed generations sit
// copy-on-write on the mapped base. Snapshot files the log does not name (a
// checkpoint that lost the race with a crash) and a log without a base are
// orphans: deleted and counted.
func (st *snapshotStore) open(name string, found *restoreFiles) (*graphEntry, error) {
	f := &graphFiles{st: st, name: name}
	var rep *graph.WALReplay
	if found.wal {
		var err error
		if rep, err = f.openLog(); rep == nil {
			// Unreadable header: the log never held a recoverable batch
			// (appends only follow a complete header). Drop it so the next
			// mutation starts a clean one.
			st.wal.unusable.Add(1)
			st.logf("delta log %s: %v (removed; restoring from snapshot alone)", name, err)
			st.remove(st.walPath(name))
		} else {
			st.wal.replays.Add(1)
			if rep.Truncated {
				st.wal.truncations.Add(1)
				st.logf("delta log %s: torn tail, dropped %d bytes", name, rep.TruncatedBytes)
			}
		}
	}
	var base uint64
	if rep != nil {
		base = rep.Epoch
	} else if !found.bases[0] {
		// No usable log and the plain snapshot is gone: the highest
		// checkpoint is the newest complete image.
		for e := range found.bases {
			base = max(base, e)
		}
	}
	for e := range found.bases {
		if e != base {
			st.remove(st.snapPath(name, e))
			st.orphansCleaned.Add(1)
		}
	}
	if !found.bases[base] {
		if found.wal {
			f.close(true)
			st.remove(st.walPath(name))
			st.orphansCleaned.Add(1)
		}
		if base == 0 {
			return nil, errors.New("delta log without a base snapshot (removed)")
		}
		st.fallbacks.Add(1)
		return nil, fmt.Errorf("base epoch %d missing (will fall back to source format)", base)
	}

	g, err := st.load(name, base)
	if err != nil {
		f.close(true)
		st.fallbacks.Add(1)
		return nil, fmt.Errorf("%w (will fall back to source format)", err)
	}
	f.epoch.Store(base)
	entry := &graphEntry{live: graph.NewLive(g), files: f}
	if rep != nil {
		for i, b := range rep.Batches {
			if _, err := entry.live.Apply(b); err != nil {
				st.wal.replayRejects.Add(1)
				st.logf("delta log %s: batch %d refused: %v (stopping at last good state)", name, i, err)
				break
			}
			entry.replayed++
			st.wal.replayBatches.Add(1)
		}
	}
	return entry, nil
}
