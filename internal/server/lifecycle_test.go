package server

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"fairsqg/internal/graph"
)

// stillMapped reports whether any file under dir is mapped into this
// process (Linux; elsewhere it reads false and the gauge alone is checked).
func stillMapped(dir string) bool {
	maps, err := os.ReadFile("/proc/self/maps")
	return err == nil && bytes.Contains(maps, []byte(dir))
}

// TestMutateLogFailureNotAcknowledged: a batch the delta log cannot take is
// refused with 503 and changes nothing — version, served generation and
// mutation counters stay put — the next mutation reopens the log, and a
// restart replays exactly the acknowledged batches. The log is made
// unopenable without an fs seam: a directory sits at its path.
func TestMutateLogFailureNotAcknowledged(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SnapshotDir: dir}
	s1, ts1 := startServer(t, opts)
	g := testGraph(t, 23)
	uploadGraph(t, ts1.URL, "talent", g)

	walPath := filepath.Join(dir, "talent"+walExt)
	if err := os.Mkdir(walPath, 0o755); err != nil {
		t.Fatal(err)
	}
	const victim = 4
	var refused apiError
	doJSON(t, http.MethodPost, ts1.URL+"/v1/graphs/talent/mutate",
		strings.NewReader(fmt.Sprintf(`[{"op":"removeNode","node":%d}]`, victim)), http.StatusServiceUnavailable, &refused)
	if !strings.Contains(refused.Error, "talent"+walExt) {
		t.Errorf("503 body does not name the log: %q", refused.Error)
	}
	if info := graphInfo(t, ts1.URL, "talent"); info.Version != 1 || info.Mutations != 0 {
		t.Fatalf("refused batch advanced the graph: version %d, mutations %d", info.Version, info.Mutations)
	}
	h, err := s1.Registry().Acquire("talent")
	if err != nil {
		t.Fatal(err)
	}
	if h.Graph().Version() != 1 || !h.Graph().Alive(victim) {
		t.Errorf("lease after the refused batch: v%d, victim alive=%v", h.Graph().Version(), h.Graph().Alive(victim))
	}
	h.Release()
	st := submitJob(t, ts1.URL, testSpec("talent"))
	if done := pollDone(t, ts1.URL, st.ID); done.State != JobDone {
		t.Fatalf("job after the refused batch: %s: %s", done.State, done.Error)
	}
	var met struct {
		Storage struct {
			WAL       map[string]float64 `json:"wal"`
			Mutations map[string]float64 `json:"mutations"`
		} `json:"storage"`
	}
	doJSON(t, http.MethodGet, ts1.URL+"/metrics", nil, http.StatusOK, &met)
	if met.Storage.WAL["appendFails"] != 1 || met.Storage.WAL["appends"] != 0 {
		t.Errorf("storage.wal = %v, want appendFails 1, appends 0", met.Storage.WAL)
	}
	if met.Storage.Mutations["batches"] != 0 || met.Storage.Mutations["rejected"] != 0 {
		t.Errorf("storage.mutations = %v, want no batch applied or rejected", met.Storage.Mutations)
	}

	// The obstacle goes away: the next mutations reopen the log and land.
	if err := os.Remove(walPath); err != nil {
		t.Fatal(err)
	}
	if res := mutate(t, ts1.URL, "talent", `[{"op":"setAttr","node":8,"attr":"title","value":"Director"}]`, http.StatusOK); res.Version != 2 {
		t.Fatalf("first acknowledged batch: version %d, want 2", res.Version)
	}
	mutate(t, ts1.URL, "talent", `[{"op":"removeNode","node":9}]`, http.StatusOK)
	pre := graphInfo(t, ts1.URL, "talent")
	shutdown(t, s1, ts1)

	s2, ts2 := startServer(t, opts)
	defer shutdown(t, s2, ts2)
	info := graphInfo(t, ts2.URL, "talent")
	if info.ReplayedBatches != 2 || info.Version != pre.Version || info.Nodes != pre.Nodes || info.Edges != pre.Edges {
		t.Fatalf("restored replayed=%d v%d %d/%d, want 2 v%d %d/%d",
			info.ReplayedBatches, info.Version, info.Nodes, info.Edges, pre.Version, pre.Nodes, pre.Edges)
	}
	h2, err := s2.Registry().Acquire("talent")
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Release()
	if !h2.Graph().Alive(victim) || h2.Graph().Alive(9) {
		t.Errorf("restart replayed the refused batch or lost an acknowledged one: victim alive=%v, node 9 alive=%v",
			h2.Graph().Alive(victim), h2.Graph().Alive(9))
	}
}

// metricsKeys lists the key paths of the /metrics sections dashboards and
// benchmark/ read: everything under jobs, cache, distCache and
// storage.{mutations,snapshots,wal}, sorted.
func metricsKeys(doc map[string]any) []string {
	var keys []string
	add := func(prefix string, section any) {
		for k := range section.(map[string]any) {
			keys = append(keys, prefix+"."+k)
		}
	}
	for _, top := range []string{"jobs", "cache", "distCache"} {
		add(top, doc[top])
	}
	storage := doc["storage"].(map[string]any)
	for _, sub := range []string{"mutations", "snapshots", "wal"} {
		add("storage."+sub, storage[sub])
	}
	sort.Strings(keys)
	return keys
}

// TestMetricsKeyStability pins the /metrics keys dashboards and
// benchmark/ read: the counter sections are rendered from the counter
// structs' field names, so a dropped or renamed field fails here, and a
// new one must be added to this list.
func TestMetricsKeyStability(t *testing.T) {
	want := strings.Fields(`
		cache.hits cache.misses
		distCache.evals distCache.hits distCache.misses
		jobs.cancelled jobs.done jobs.failed jobs.queueDepth jobs.shed jobs.states jobs.submitted
		storage.mutations.batches storage.mutations.checkpointFails storage.mutations.checkpoints
		storage.mutations.chunkBytes storage.mutations.compactions storage.mutations.ops storage.mutations.rejected
		storage.snapshots.fallbacks storage.snapshots.loadMs storage.snapshots.loads
		storage.snapshots.mappedBytes storage.snapshots.mmapLoads storage.snapshots.orphansCleaned
		storage.snapshots.tmpCleaned storage.snapshots.writeFails storage.snapshots.writes
		storage.wal.appendFails storage.wal.appends storage.wal.replayBatches storage.wal.replayRejects
		storage.wal.replays storage.wal.resetFails storage.wal.resets storage.wal.truncations
		storage.wal.unusable`)
	s, ts := startServer(t, Options{SnapshotDir: t.TempDir(), MmapGraphs: true})
	defer shutdown(t, s, ts)
	check := func(when string) {
		t.Helper()
		var doc map[string]any
		doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, http.StatusOK, &doc)
		if got := metricsKeys(doc); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: /metrics keys\n got %v\nwant %v", when, got, want)
		}
	}
	check("empty server")
	uploadGraph(t, ts.URL, "talent", testGraph(t, 3))
	mutate(t, ts.URL, "talent", `[{"op":"removeNode","node":0}]`, http.StatusOK)
	if err := s.Registry().Checkpoint("talent"); err != nil {
		t.Fatal(err)
	}
	check("after upload, mutate and checkpoint")

	// The rendered values are the counters, not just their names.
	storage := s.MetricsSnapshot()["storage"].(map[string]any)
	if got := storage["mutations"].(map[string]any)["ops"]; got != int64(1) {
		t.Errorf("storage.mutations.ops = %v, want 1", got)
	}
	if got, _ := storage["mutations"].(map[string]any)["chunkBytes"].(int64); got <= 0 {
		t.Errorf("storage.mutations.chunkBytes = %v, want the removal's cloned chunks", got)
	}
	if got := storage["wal"].(map[string]any)["resets"]; got != int64(1) {
		t.Errorf("storage.wal.resets = %v, want 1", got)
	}
}

// TestMappedBytesGauge follows storage.snapshots.mappedBytes, which is
// derived from the served generations: the file size after a mapped
// restore, unchanged by a mutation (the new generation is an overlay on
// the mapped base), 0 once a checkpoint made the served generation heap, 0
// after Remove even while a lease still pins the mapping, 0 after Shutdown.
func TestMappedBytesGauge(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SnapshotDir: dir, MmapGraphs: true}
	s1, ts1 := startServer(t, opts)
	uploadGraph(t, ts1.URL, "talent", testGraph(t, 7))
	shutdown(t, s1, ts1)

	s2, ts2 := startServer(t, opts)
	size := fileSize(t, filepath.Join(dir, "talent"+snapExt))
	if got := mappedBytesGauge(t, s2); got != size || size == 0 {
		t.Fatalf("after a mapped restore: gauge %d, file %d bytes", got, size)
	}
	mutate(t, ts2.URL, "talent", `[{"op":"setAttr","node":1,"attr":"yearsOfExp","value":"19"}]`, http.StatusOK)
	if got := mappedBytesGauge(t, s2); got != size {
		t.Errorf("after a mutation: gauge %d, want %d", got, size)
	}
	if err := s2.Registry().Checkpoint("talent"); err != nil {
		t.Fatal(err)
	}
	if got := mappedBytesGauge(t, s2); got != 0 {
		t.Errorf("after a checkpoint: gauge %d, want 0", got)
	}

	uploadGraph(t, ts2.URL, "leased", testGraph(t, 9))
	h, err := s2.Registry().Acquire("leased")
	if err != nil {
		t.Fatal(err)
	}
	if !h.Graph().Mapped() || mappedBytesGauge(t, s2) != h.Graph().MappedBytes() {
		t.Fatalf("leased graph: mapped=%v, gauge %d, graph %d bytes", h.Graph().Mapped(), mappedBytesGauge(t, s2), h.Graph().MappedBytes())
	}
	if err := s2.Registry().Remove("leased"); err != nil {
		t.Fatal(err)
	}
	if got := mappedBytesGauge(t, s2); got != 0 {
		t.Errorf("after Remove with a lease outstanding: gauge %d, want 0", got)
	}
	if got := len(h.Graph().NodesByLabel("Person")); got == 0 {
		t.Error("lease unreadable after Remove")
	}
	h.Release()

	uploadGraph(t, ts2.URL, "late", testGraph(t, 11))
	if mappedBytesGauge(t, s2) == 0 {
		t.Fatal("a third mapped graph did not show in the gauge")
	}
	shutdown(t, s2, ts2)
	if got := mappedBytesGauge(t, s2); got != 0 {
		t.Errorf("after Shutdown: gauge %d, want 0", got)
	}
	if stillMapped(dir) {
		t.Error("a snapshot file is still mapped after Shutdown")
	}
}

// TestLifecycleConcurrency runs every transition of one name at once —
// Mutate, Checkpoint, Acquire/Release and finally Remove — over a mapped
// graph. Run under -race in CI. It ends with every mapped reference
// released and the last generation any lease saw structurally sound.
func TestLifecycleConcurrency(t *testing.T) {
	dir := t.TempDir()
	st, err := newSnapshotStore(dir, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.snaps = st
	if err := reg.Put("g", testGraph(t, 13)); err != nil {
		t.Fatal(err)
	}

	const rounds = 40
	var (
		wg      sync.WaitGroup
		lastMu  sync.Mutex
		applied int
		midway  = make(chan struct{}) // closed once a few batches have landed
	)
	last, err := reg.Acquire("g") // lease on the newest generation seen, kept past Remove
	if err != nil {
		t.Fatal(err)
	}
	gone := func(err error) bool { return errors.Is(err, ErrUnknownGraph) }
	run := func(f func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := f(i); gone(err) {
					return
				} else if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		run(func(i int) error {
			_, err := reg.Mutate("g", []graph.Mutation{
				{Op: graph.MutSetAttr, Node: graph.NodeID(10*w + i%10), Attr: "yearsOfExp", Value: graph.Int(int64(i))},
				{Op: graph.MutRemoveNode, Node: graph.NodeID(100 + rounds*w + i)},
			})
			if err == nil {
				lastMu.Lock()
				if applied++; applied == rounds/4 {
					close(midway)
				}
				lastMu.Unlock()
			}
			return err
		})
	}
	run(func(int) error { return reg.Checkpoint("g") })
	for w := 0; w < 2; w++ {
		run(func(int) error {
			h, err := reg.Acquire("g")
			if err != nil {
				return err
			}
			if h.Engine().Graph() != h.Graph() {
				t.Error("lease's engine and graph disagree on the generation")
			}
			lastMu.Lock()
			if h.Graph().Version() > last.Graph().Version() {
				h, last = last, h
			}
			lastMu.Unlock()
			h.Release()
			_ = reg.mappedBytes()
			return nil
		})
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-midway
		if err := reg.Remove("g"); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()

	if _, ok := reg.Info("g"); ok {
		t.Fatal("graph still registered after Remove")
	}
	if got := listDir(t, dir); len(got) != 0 {
		t.Errorf("Remove left files behind: %v", got)
	}
	if err := graph.CheckInvariants(last.Graph()); err != nil {
		t.Errorf("last generation (v%d, %d batches applied): %v", last.Graph().Version(), applied, err)
	}
	last.Release()
	if got := reg.mappedBytes(); got != 0 {
		t.Errorf("mappedBytes gauge = %d at the end, want 0", got)
	}
	if stillMapped(dir) {
		t.Error("the snapshot is still mapped after the last Release")
	}
}
