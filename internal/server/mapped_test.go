package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"fairsqg/internal/graph"
)

func storageSnapshots(t *testing.T, url string) map[string]any {
	t.Helper()
	var met struct {
		Storage struct {
			Snapshots map[string]any `json:"snapshots"`
		} `json:"storage"`
	}
	doJSON(t, http.MethodGet, url+"/metrics", nil, http.StatusOK, &met)
	if met.Storage.Snapshots == nil {
		t.Fatal("/metrics storage.snapshots missing")
	}
	return met.Storage.Snapshots
}

// mappedBytesGauge reads storage.snapshots.mappedBytes off the server's
// metrics document (it is derived from the registry when rendered).
func mappedBytesGauge(t *testing.T, s *Server) int64 {
	t.Helper()
	storage := s.MetricsSnapshot()["storage"].(map[string]any)
	return storage["snapshots"].(map[string]any)["mappedBytes"].(int64)
}

// TestServerMappedWarmRestart is the -mmap-graphs e2e: an uploaded graph
// is persisted and immediately re-served from its memory-mapped snapshot,
// a restart restores it mapped, job results stay byte-identical across
// generations, and the storage metrics expose the mapped state.
func TestServerMappedWarmRestart(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t, 7)

	// Generation 1: upload. In mapped mode the registered graph is the
	// mapped reopen of the snapshot just saved, not the uploaded heap copy.
	s1, ts1 := startServer(t, Options{SnapshotDir: dir, MmapGraphs: true})
	uploadGraph(t, ts1.URL, "talent", g)

	h, err := s1.Registry().Acquire("talent")
	if err != nil {
		t.Fatal(err)
	}
	if !h.Graph().Mapped() {
		t.Fatal("uploaded graph is not served mapped (expected on a unix host)")
	}
	h.Release()

	st := submitJob(t, ts1.URL, testSpec("talent"))
	done := pollDone(t, ts1.URL, st.ID)
	if done.State != JobDone {
		t.Fatalf("gen-1 job state = %s: %s", done.State, done.Error)
	}
	var want JobResult
	doJSON(t, http.MethodGet, ts1.URL+"/v1/jobs/"+st.ID+"/result", nil, http.StatusOK, &want)

	snaps := storageSnapshots(t, ts1.URL)
	if got, _ := snaps["mmapLoads"].(float64); got < 1 {
		t.Errorf("gen-1 storage.snapshots.mmapLoads = %v, want >= 1", snaps["mmapLoads"])
	}
	if got, _ := snaps["mappedBytes"].(float64); got <= 0 {
		t.Errorf("gen-1 storage.snapshots.mappedBytes = %v, want > 0", snaps["mappedBytes"])
	}
	shutdown(t, s1, ts1)

	// Generation 2: restore from the same directory, mapped.
	s2, ts2 := startServer(t, Options{SnapshotDir: dir, MmapGraphs: true})
	if got := s2.RestoredGraphs(); !reflect.DeepEqual(got, []string{"talent"}) {
		t.Fatalf("RestoredGraphs = %v, want [talent]", got)
	}
	h2, err := s2.Registry().Acquire("talent")
	if err != nil {
		t.Fatal(err)
	}
	if !h2.Graph().Mapped() {
		t.Fatal("restored graph is not served mapped")
	}
	h2.Release()

	st2 := submitJob(t, ts2.URL, testSpec("talent"))
	done2 := pollDone(t, ts2.URL, st2.ID)
	if done2.State != JobDone {
		t.Fatalf("gen-2 job state = %s: %s", done2.State, done2.Error)
	}
	var got JobResult
	doJSON(t, http.MethodGet, ts2.URL+"/v1/jobs/"+st2.ID+"/result", nil, http.StatusOK, &got)
	stripClocks(&got, &want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("mapped restore changed job results:\n got %+v\nwant %+v", got, want)
	}
	shutdown(t, s2, ts2)

	// Shutdown tore the registry down; the gauge must be back to zero.
	if n := mappedBytesGauge(t, s2); n != 0 {
		t.Errorf("mappedBytes gauge = %d after shutdown, want 0", n)
	}
}

// TestServerRefusedSnapshotVersion: a snapshot of any version but
// graph.SnapshotVersion takes the undecodable-file path, in heap and in
// mapped mode alike — restore skips it, counts one fallback and deletes
// neither it nor the delta log beside it; only an explicit registration of
// the same name replaces them.
func TestServerRefusedSnapshotVersion(t *testing.T) {
	g := testGraph(t, 5)
	var buf bytes.Buffer
	if err := graph.WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	stale := buf.Bytes()
	binary.LittleEndian.PutUint32(stale[8:12], 1)

	for _, mapped := range []bool{false, true} {
		t.Run(fmt.Sprintf("mmap=%v", mapped), func(t *testing.T) {
			dir := t.TempDir()
			snapPath := filepath.Join(dir, "legacy"+snapExt)
			walPath := filepath.Join(dir, "legacy"+walExt)
			if err := os.WriteFile(snapPath, stale, 0o644); err != nil {
				t.Fatal(err)
			}
			w, err := graph.OpenWAL(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append([]graph.Mutation{{Op: graph.MutRemoveNode, Node: 0}}); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			staleLog, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}

			s, ts := startServer(t, Options{SnapshotDir: dir, MmapGraphs: mapped})
			defer shutdown(t, s, ts)
			if got := s.RestoredGraphs(); len(got) != 0 {
				t.Fatalf("RestoredGraphs = %v, want none", got)
			}
			if _, ok := s.Registry().Info("legacy"); ok {
				t.Fatal("refused-version snapshot was registered")
			}
			snaps := storageSnapshots(t, ts.URL)
			if got, _ := snaps["fallbacks"].(float64); got != 1 {
				t.Errorf("storage.snapshots.fallbacks = %v, want 1", snaps["fallbacks"])
			}
			if got, _ := snaps["mappedBytes"].(float64); got != 0 {
				t.Errorf("storage.snapshots.mappedBytes = %v after a refused open, want 0", snaps["mappedBytes"])
			}
			for path, want := range map[string][]byte{snapPath: stale, walPath: staleLog} {
				if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("restore touched %s (read err %v)", filepath.Base(path), err)
				}
			}

			// Registering the name from its source is what replaces the file.
			uploadGraph(t, ts.URL, "legacy", g)
			fresh, err := graph.ReadSnapshotFile(snapPath)
			if err != nil {
				t.Fatalf("snapshot after re-registration: %v", err)
			}
			if fresh.NumNodes() != g.NumNodes() || fresh.NumEdges() != g.NumEdges() {
				t.Fatalf("rewritten snapshot has %d/%d nodes/edges, want %d/%d",
					fresh.NumNodes(), fresh.NumEdges(), g.NumNodes(), g.NumEdges())
			}
			if _, err := os.Stat(walPath); !os.IsNotExist(err) {
				t.Fatalf("stale delta log survived re-registration: stat err = %v", err)
			}
			if mapped {
				if got, _ := storageSnapshots(t, ts.URL)["mmapLoads"].(float64); got < 1 {
					t.Errorf("storage.snapshots.mmapLoads = %v after re-registration, want >= 1", got)
				}
			}
		})
	}
}

// TestMappedUseAfterRemove: a handle acquired before Remove must keep the
// mapping alive — reads through it stay valid while and after the graph is
// unregistered concurrently, and the region is released only on the last
// Release. Run under -race in CI.
func TestMappedUseAfterRemove(t *testing.T) {
	dir := t.TempDir()
	st, err := newSnapshotStore(dir, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.snaps = st
	g := testGraph(t, 9)
	if err := reg.Put("g", g); err != nil {
		t.Fatal(err)
	}
	h, err := reg.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	if !h.Graph().Mapped() {
		t.Skip("graph not mapped on this platform")
	}
	want := graph.Summarize(h.Graph())

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if got := graph.Summarize(h.Graph()); !reflect.DeepEqual(got, want) {
				t.Error("mapped reads changed during concurrent Remove")
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		if err := reg.Remove("g"); err != nil {
			t.Errorf("Remove: %v", err)
		}
	}()
	wg.Wait()

	// The registry dropped its reference; the handle still pins the map.
	if got := graph.Summarize(h.Graph()); !reflect.DeepEqual(got, want) {
		t.Fatal("mapped reads invalid after Remove with a live handle")
	}
	h.Release()
	if n := reg.mappedBytes(); n != 0 {
		t.Fatalf("mappedBytes gauge = %d after last release, want 0", n)
	}
	// Handles and releases are idempotent; a second Release must not
	// double-close the backing.
	h.Release()
}
