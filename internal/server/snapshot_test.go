package server

import (
	"bytes"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"fairsqg/internal/graph"
)

// startServer is newTestServer without the automatic cleanup: the
// crash-recovery test tears servers down (and deliberately doesn't, for
// the simulated crash) at specific points in the scenario.
func startServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Jobs.Workers == 0 {
		opts.Jobs.Workers = 2
	}
	s := New(opts)
	return s, httptest.NewServer(s.Handler())
}

// stripClocks zeroes what a result reads off a clock — its elapsed time and
// the run's phase clocks — so two runs of one job compare equal.
func stripClocks(rs ...*JobResult) {
	for _, r := range rs {
		r.ElapsedMs = 0
		clear(r.Stats.Wall[:])
	}
}

func shutdown(t *testing.T, s *Server, ts *httptest.Server) {
	t.Helper()
	ts.Close()
	ctx, cancel := contextWithTimeout(5 * time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServerCrashRecovery is the warm-restart e2e: a graph registered
// with snapshots enabled survives a full server teardown — a fresh Server
// on the same directory restores the registry from the binary snapshot
// (no source re-parse, no re-Freeze), a repeat job returns identical
// results, a partially-written .tmp file is ignored and cleaned, and a
// corrupt snapshot degrades to "not registered" instead of failing
// startup.
func TestServerCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t, 7)

	// Generation 1: register via upload, run a job to completion.
	s1, ts1 := startServer(t, Options{SnapshotDir: dir})
	uploadGraph(t, ts1.URL, "talent", g)
	st := submitJob(t, ts1.URL, testSpec("talent"))
	done := pollDone(t, ts1.URL, st.ID)
	if done.State != JobDone {
		t.Fatalf("gen-1 job state = %s: %s", done.State, done.Error)
	}
	var want JobResult
	doJSON(t, http.MethodGet, ts1.URL+"/v1/jobs/"+st.ID+"/result", nil, http.StatusOK, &want)

	snapPath := filepath.Join(dir, "talent"+snapExt)
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("snapshot not persisted on register: %v", err)
	}
	shutdown(t, s1, ts1)

	// Simulate the crash debris a restart must tolerate: a partial .tmp
	// write and an unrelated corrupt snapshot.
	tmpPath := filepath.Join(dir, "talent"+snapTmpExt)
	if err := os.WriteFile(tmpPath, []byte("partial write"), 0o644); err != nil {
		t.Fatal(err)
	}
	badPath := filepath.Join(dir, "corrupt"+snapExt)
	if err := os.WriteFile(badPath, []byte("FSQGSNAPgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Generation 2: fresh server, same directory.
	s2, ts2 := startServer(t, Options{SnapshotDir: dir})
	defer shutdown(t, s2, ts2)

	if got := s2.RestoredGraphs(); !reflect.DeepEqual(got, []string{"talent"}) {
		t.Fatalf("RestoredGraphs = %v, want [talent]", got)
	}
	info, ok := s2.Registry().Info("talent")
	if !ok {
		t.Fatal("talent not restored into registry")
	}
	if info.Nodes != g.NumNodes() || info.Edges != g.NumEdges() {
		t.Fatalf("restored graph %d/%d nodes/edges, want %d/%d",
			info.Nodes, info.Edges, g.NumNodes(), g.NumEdges())
	}
	if _, ok := s2.Registry().Info("corrupt"); ok {
		t.Fatal("corrupt snapshot was registered")
	}
	if _, err := os.Stat(tmpPath); !os.IsNotExist(err) {
		t.Fatalf("partial %s not cleaned: stat err = %v", tmpPath, err)
	}

	// The repeat job on the restored graph must return byte-identical
	// results — the snapshot restored the exact frozen layout the
	// algorithms saw in generation 1.
	st2 := submitJob(t, ts2.URL, testSpec("talent"))
	done2 := pollDone(t, ts2.URL, st2.ID)
	if done2.State != JobDone {
		t.Fatalf("gen-2 job state = %s: %s", done2.State, done2.Error)
	}
	var got JobResult
	doJSON(t, http.MethodGet, ts2.URL+"/v1/jobs/"+st2.ID+"/result", nil, http.StatusOK, &got)
	stripClocks(&got, &want) // wall time is the one legitimate difference
	if !reflect.DeepEqual(got, want) {
		t.Errorf("restored-graph job result differs from original:\n got %+v\nwant %+v", got, want)
	}

	// Storage metrics: one load (talent), one fallback (corrupt), one
	// cleaned tmp, and positive load latency.
	var met struct {
		Storage struct {
			Snapshots map[string]any `json:"snapshots"`
		} `json:"storage"`
	}
	doJSON(t, http.MethodGet, ts2.URL+"/metrics", nil, http.StatusOK, &met)
	snaps := met.Storage.Snapshots
	if snaps == nil {
		t.Fatal("/metrics storage.snapshots missing with SnapshotDir set")
	}
	for key, want := range map[string]float64{"loads": 1, "fallbacks": 1, "tmpCleaned": 1} {
		if got, _ := snaps[key].(float64); got != want {
			t.Errorf("storage.snapshots.%s = %v, want %v", key, snaps[key], want)
		}
	}
	if ms, _ := snaps["loadMs"].(float64); ms <= 0 {
		t.Errorf("storage.snapshots.loadMs = %v, want > 0", snaps["loadMs"])
	}
}

// TestRegistryRemoveDeletesSnapshot: unregistering a graph removes its
// snapshot so the next startup doesn't resurrect it.
func TestRegistryRemoveDeletesSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, ts := startServer(t, Options{SnapshotDir: dir})
	defer shutdown(t, s, ts)

	uploadGraph(t, ts.URL, "gone", testGraph(t, 3))
	snapPath := filepath.Join(dir, "gone"+snapExt)
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	doJSON(t, http.MethodDelete, ts.URL+"/v1/graphs/gone", nil, http.StatusOK, nil)
	if _, err := os.Stat(snapPath); !os.IsNotExist(err) {
		t.Fatalf("snapshot survived Remove: stat err = %v", err)
	}
}

// TestUploadSnapshotFormat: the HTTP surface accepts ?format=snapshot, so
// offline-converted .fsnap artifacts upload directly.
func TestUploadSnapshotFormat(t *testing.T) {
	s, ts := startServer(t, Options{})
	defer shutdown(t, s, ts)

	g := testGraph(t, 11)
	var buf bytes.Buffer
	if err := graph.WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	var info GraphInfo
	doJSON(t, http.MethodPut, ts.URL+"/v1/graphs/snap?format=snapshot", &buf, http.StatusCreated, &info)
	if info.Nodes != g.NumNodes() || info.Edges != g.NumEdges() {
		t.Fatalf("snapshot upload info %d/%d, want %d/%d", info.Nodes, info.Edges, g.NumNodes(), g.NumEdges())
	}
	// And a corrupt body is a client error, not a crash; so is a valid
	// file of another snapshot version.
	doJSON(t, http.MethodPut, ts.URL+"/v1/graphs/snap2?format=snapshot",
		bytes.NewReader([]byte("FSQGSNAPnope")), http.StatusBadRequest, nil)
	if err := graph.WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(buf.Bytes()[8:12], 1)
	doJSON(t, http.MethodPut, ts.URL+"/v1/graphs/snap3?format=snapshot", &buf, http.StatusBadRequest, nil)
}
