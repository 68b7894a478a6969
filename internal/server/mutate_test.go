package server

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"fairsqg/internal/graph"
	"fairsqg/internal/query"
)

// mutate POSTs a raw JSON mutation batch and decodes the result (for 200s).
func mutate(t *testing.T, baseURL, name, body string, wantCode int) *MutateResult {
	t.Helper()
	var res *MutateResult
	if wantCode == http.StatusOK {
		res = &MutateResult{}
	}
	if res != nil {
		doJSON(t, http.MethodPost, baseURL+"/v1/graphs/"+name+"/mutate", strings.NewReader(body), wantCode, res)
	} else {
		doJSON(t, http.MethodPost, baseURL+"/v1/graphs/"+name+"/mutate", strings.NewReader(body), wantCode, nil)
	}
	return res
}

// listDir returns the directory's file names, sorted.
func listDir(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// TestHTTPMutateEndpoint exercises POST /v1/graphs/{name}/mutate: a valid
// batch applies atomically and reports the new generation's shape, invalid
// batches are rejected whole with 422 and change nothing, and jobs keep
// running against the mutated graph, with /metrics cache.hits and
// cache.misses never falling.
func TestHTTPMutateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	g := testGraph(t, 31)
	uploadGraph(t, ts.URL, "talent", g)
	newID := g.NumNodes() // deterministic ID of the first added node
	job := func() {
		t.Helper()
		if done := pollDone(t, ts.URL, submitJob(t, ts.URL, testSpec("talent")).ID); done.State != JobDone {
			t.Fatalf("job: %s: %s", done.State, done.Error)
		}
	}
	job()
	h1, m1 := cacheCounts(t, ts.URL)

	batch := fmt.Sprintf(`[
		{"op":"addNode","label":"Person","attrs":{"gender":"female","title":"Director","yearsOfExp":"7"}},
		{"op":"addEdge","from":%d,"to":0,"label":"recommend"},
		{"op":"setAttr","node":1,"attr":"yearsOfExp","value":"19"}
	]`, newID)
	res := mutate(t, ts.URL, "talent", batch, http.StatusOK)
	if res.Version != 2 || res.Ops != 3 || res.EdgesAdded != 1 {
		t.Fatalf("mutate result %+v, want version 2, ops 3, edgesAdded 1", res)
	}
	// The batch put the graph on a fresh engine; /metrics keeps the retired
	// one's candidate-list lookups.
	if h2, m2 := cacheCounts(t, ts.URL); m1 == 0 || h2 != h1 || m2 != m1 {
		t.Errorf("cache hits/misses %d/%d after a job, %d/%d after the batch", h1, m1, h2, m2)
	}
	if len(res.AddedNodes) != 1 || int(res.AddedNodes[0]) != newID {
		t.Fatalf("AddedNodes = %v, want [%d]", res.AddedNodes, newID)
	}
	if res.Nodes != g.NumNodes()+1 || res.Edges != g.NumEdges()+1 {
		t.Fatalf("post-batch shape %d/%d, want %d/%d", res.Nodes, res.Edges, g.NumNodes()+1, g.NumEdges()+1)
	}
	// The response sizes what the merge rebuilt: the Person bucket, the new
	// edge's two rows, the added node's three columns.
	if tc := res.Touched; tc.LabelsReranked != 1 || tc.OutRows != 1 || tc.InRows != 1 ||
		tc.ColumnsPatched+tc.ColumnsRebuilt != 3 || tc.IndexesMerged < 3 || tc.DerivedRebuilt {
		t.Fatalf("touched = %+v", tc)
	}
	info := graphInfo(t, ts.URL, "talent")
	if info.Version != 2 || info.Mutations != 3 {
		t.Fatalf("graph info version=%d mutations=%d, want 2/3", info.Version, info.Mutations)
	}

	// A batch with one bad op is rejected whole: the removeNode below is
	// valid, but the dangling edge poisons the batch.
	bad := `[
		{"op":"removeNode","node":2},
		{"op":"addEdge","from":0,"to":999999,"label":"recommend"}
	]`
	mutate(t, ts.URL, "talent", bad, http.StatusUnprocessableEntity)
	if info := graphInfo(t, ts.URL, "talent"); info.Version != 2 {
		t.Fatalf("rejected batch advanced the version to %d", info.Version)
	}

	mutate(t, ts.URL, "talent", `not json`, http.StatusBadRequest)
	mutate(t, ts.URL, "talent", `[]`, http.StatusUnprocessableEntity)
	mutate(t, ts.URL, "nope", `[{"op":"removeNode","node":0}]`, http.StatusNotFound)

	// Jobs evaluate against the mutated generation.
	job()
	if h3, m3 := cacheCounts(t, ts.URL); m3 <= m1 || h3 < h1 {
		t.Errorf("cache hits/misses %d/%d after a job on the new generation, %d/%d before", h3, m3, h1, m1)
	}
}

// graphInfo fetches one graph's info over HTTP.
func graphInfo(t *testing.T, baseURL, name string) GraphInfo {
	t.Helper()
	var info GraphInfo
	doJSON(t, http.MethodGet, baseURL+"/v1/graphs/"+name, nil, http.StatusOK, &info)
	return info
}

// TestServerWALRecovery is the crash e2e for live graphs: mutation batches
// survive an unclean death through the delta log — a fresh server on the
// same directory replays them over the base snapshot and lands on the
// exact pre-crash state (byte-identical job results), a torn final frame
// (the simulated mid-batch kill) is truncated and counted, and all of it
// holds in mapped mode too.
func TestServerWALRecovery(t *testing.T) {
	for _, mapped := range []bool{false, true} {
		t.Run(fmt.Sprintf("mapped=%v", mapped), func(t *testing.T) {
			dir := t.TempDir()
			g := testGraph(t, 21)
			opts := Options{SnapshotDir: dir, MmapGraphs: mapped}

			s1, ts1 := startServer(t, opts)
			uploadGraph(t, ts1.URL, "talent", g)
			newID := g.NumNodes()
			mutate(t, ts1.URL, "talent", fmt.Sprintf(`[
				{"op":"addNode","label":"Person","attrs":{"gender":"female","title":"Director","yearsOfExp":"3"}},
				{"op":"addEdge","from":%d,"to":0,"label":"recommend"},
				{"op":"addEdge","from":1,"to":%d,"label":"recommend"}
			]`, newID, newID), http.StatusOK)
			mutate(t, ts1.URL, "talent", `[
				{"op":"removeNode","node":4},
				{"op":"setAttr","node":8,"attr":"title","value":"Director"}
			]`, http.StatusOK)

			st := submitJob(t, ts1.URL, testSpec("talent"))
			if done := pollDone(t, ts1.URL, st.ID); done.State != JobDone {
				t.Fatalf("pre-crash job: %s: %s", done.State, done.Error)
			}
			var want JobResult
			doJSON(t, http.MethodGet, ts1.URL+"/v1/jobs/"+st.ID+"/result", nil, http.StatusOK, &want)
			preInfo := graphInfo(t, ts1.URL, "talent")
			if preInfo.Version != 3 {
				t.Fatalf("pre-crash version %d, want 3", preInfo.Version)
			}
			shutdown(t, s1, ts1)

			// Simulate the kill mid-batch: a torn frame at the log's tail.
			// The 8 garbage bytes parse as an absurd frame header, so replay
			// must stop at the last fsync'd batch and repair must drop them.
			walPath := filepath.Join(dir, "talent"+walExt)
			f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("GARBAGE!")); err != nil {
				t.Fatal(err)
			}
			f.Close()
			tornSize := fileSize(t, walPath)

			s2, ts2 := startServer(t, opts)
			defer shutdown(t, s2, ts2)
			if got := s2.RestoredGraphs(); !reflect.DeepEqual(got, []string{"talent"}) {
				t.Fatalf("RestoredGraphs = %v", got)
			}
			info := graphInfo(t, ts2.URL, "talent")
			if info.Version != preInfo.Version || info.Nodes != preInfo.Nodes || info.Edges != preInfo.Edges {
				t.Fatalf("restored %d/%d v%d, want %d/%d v%d",
					info.Nodes, info.Edges, info.Version, preInfo.Nodes, preInfo.Edges, preInfo.Version)
			}
			if info.ReplayedBatches != 2 {
				t.Fatalf("replayedBatches = %d, want 2", info.ReplayedBatches)
			}
			if got := fileSize(t, walPath); got != tornSize-8 {
				t.Fatalf("torn tail not repaired: %d bytes, want %d", got, tornSize-8)
			}

			st2 := submitJob(t, ts2.URL, testSpec("talent"))
			if done := pollDone(t, ts2.URL, st2.ID); done.State != JobDone {
				t.Fatalf("post-crash job: %s: %s", done.State, done.Error)
			}
			var got JobResult
			doJSON(t, http.MethodGet, ts2.URL+"/v1/jobs/"+st2.ID+"/result", nil, http.StatusOK, &got)
			stripClocks(&got, &want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("post-crash job result differs:\n got %+v\nwant %+v", got, want)
			}

			// And the graph is still live: a post-recovery mutation applies
			// and appends to the repaired log.
			res := mutate(t, ts2.URL, "talent", `[{"op":"setAttr","node":3,"attr":"yearsOfExp","value":"1"}]`, http.StatusOK)
			if res.Version != preInfo.Version+1 {
				t.Fatalf("post-recovery version %d, want %d", res.Version, preInfo.Version+1)
			}

			var met struct {
				Storage struct {
					WAL       map[string]float64 `json:"wal"`
					Mutations map[string]float64 `json:"mutations"`
				} `json:"storage"`
			}
			doJSON(t, http.MethodGet, ts2.URL+"/metrics", nil, http.StatusOK, &met)
			for key, want := range map[string]float64{"replays": 1, "replayBatches": 2, "truncations": 1, "appends": 1} {
				if met.Storage.WAL[key] != want {
					t.Errorf("storage.wal.%s = %v, want %v", key, met.Storage.WAL[key], want)
				}
			}
			if met.Storage.Mutations["batches"] != 1 {
				t.Errorf("storage.mutations.batches = %v, want 1", met.Storage.Mutations["batches"])
			}
		})
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestCheckpointFileLifecycle follows one graph's directory footprint
// through its whole life: upload → snapshot; mutation → delta log;
// checkpoint → epoch-qualified snapshot replaces the plain one and the
// log resets; second round rotates the epoch and retires the old file;
// restart restores from the rotated pair; Remove leaves nothing behind.
func TestCheckpointFileLifecycle(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := startServer(t, Options{SnapshotDir: dir})
	g := testGraph(t, 5)
	uploadGraph(t, ts1.URL, "lc", g)
	if got, want := listDir(t, dir), []string{"lc" + snapExt}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after upload: %v, want %v", got, want)
	}

	mutate(t, ts1.URL, "lc", `[{"op":"removeNode","node":0},{"op":"setAttr","node":1,"attr":"title","value":"Director"}]`, http.StatusOK)
	if got, want := listDir(t, dir), []string{"lc" + walExt, "lc" + snapExt}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after mutate: %v, want %v", got, want)
	}

	if err := s1.Registry().Checkpoint("lc"); err != nil {
		t.Fatal(err)
	}
	if got, want := listDir(t, dir), []string{"lc" + walExt, "lc@1" + snapExt}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after checkpoint: %v, want %v", got, want)
	}
	// The reset log carries the tombstone batch for the removed node:
	// replaying it over the epoch-1 snapshot reproduces the live state.
	rep, err := graph.ReplayWAL(filepath.Join(dir, "lc"+walExt), false)
	if err != nil || rep.Epoch != 1 || len(rep.Batches) != 1 {
		t.Fatalf("post-checkpoint log: epoch=%d batches=%d err=%v", rep.Epoch, len(rep.Batches), err)
	}
	infoBefore, _ := s1.Registry().Info("lc")
	if infoBefore.Epoch != 1 {
		t.Fatalf("entry epoch %d, want 1", infoBefore.Epoch)
	}

	mutate(t, ts1.URL, "lc", `[{"op":"addNode","label":"Org","attrs":{"employees":"42"}}]`, http.StatusOK)
	if err := s1.Registry().Checkpoint("lc"); err != nil {
		t.Fatal(err)
	}
	if got, want := listDir(t, dir), []string{"lc" + walExt, "lc@2" + snapExt}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after second checkpoint: %v, want %v", got, want)
	}
	infoBefore, _ = s1.Registry().Info("lc")
	shutdown(t, s1, ts1)

	// Restart restores from the epoch-2 pair.
	s2, ts2 := startServer(t, Options{SnapshotDir: dir})
	if got := s2.RestoredGraphs(); !reflect.DeepEqual(got, []string{"lc"}) {
		t.Fatalf("RestoredGraphs = %v", got)
	}
	info, _ := s2.Registry().Info("lc")
	if info.Nodes != infoBefore.Nodes || info.Edges != infoBefore.Edges || info.Epoch != 2 {
		t.Fatalf("restored %d/%d epoch %d, want %d/%d epoch 2",
			info.Nodes, info.Edges, info.Epoch, infoBefore.Nodes, infoBefore.Edges)
	}

	doJSON(t, http.MethodDelete, ts2.URL+"/v1/graphs/lc", nil, http.StatusOK, nil)
	if got := listDir(t, dir); len(got) != 0 {
		t.Fatalf("Remove left files behind: %v", got)
	}
	shutdown(t, s2, ts2)
}

// TestRestoreSweepsOrphans: files a crashed checkpoint can leave behind —
// an epoch snapshot the log never committed to, and a delta log whose
// base snapshot is gone — are deleted (and counted) on restore instead of
// accumulating forever.
func TestRestoreSweepsOrphans(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := startServer(t, Options{SnapshotDir: dir})
	uploadGraph(t, ts1.URL, "talent", testGraph(t, 13))
	mutate(t, ts1.URL, "talent", `[{"op":"removeNode","node":7}]`, http.StatusOK)
	shutdown(t, s1, ts1)

	// Uncommitted checkpoint: epoch snapshot exists but the log still says
	// epoch 0 (the crash hit between the snapshot write and the log reset).
	snap, err := os.ReadFile(filepath.Join(dir, "talent"+snapExt))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "talent@7"+snapExt), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	// Delta log whose graph was removed mid-crash: no base snapshot at all.
	w, err := graph.OpenWAL(filepath.Join(dir, "lost"+walExt))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]graph.Mutation{{Op: graph.MutRemoveNode, Node: 0}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	// Partial rotation temp from a crashed ResetEpoch.
	if err := os.WriteFile(filepath.Join(dir, "talent"+walTmpExt), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := startServer(t, Options{SnapshotDir: dir})
	defer shutdown(t, s2, ts2)
	if got := s2.RestoredGraphs(); !reflect.DeepEqual(got, []string{"talent"}) {
		t.Fatalf("RestoredGraphs = %v", got)
	}
	info, _ := s2.Registry().Info("talent")
	if info.ReplayedBatches != 1 || info.Epoch != 0 {
		t.Fatalf("talent restored with replayed=%d epoch=%d, want 1/0", info.ReplayedBatches, info.Epoch)
	}
	if got, want := listDir(t, dir), []string{"talent" + walExt, "talent" + snapExt}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after sweep: %v, want %v", got, want)
	}
	if n := s2.snaps.orphansCleaned.Load(); n != 2 {
		t.Errorf("orphansCleaned = %d, want 2 (talent@7 + lost%s)", n, walExt)
	}
	if n := s2.snaps.tmpCleaned.Load(); n != 1 {
		t.Errorf("tmpCleaned = %d, want 1", n)
	}
}

// TestHandleGenerationIsolation: a handle captures one consistent
// (generation, engine) pair — mutations and removal never swap the graph
// under an in-flight job, while new acquires see the new generation on an
// engine of its own.
func TestHandleGenerationIsolation(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Put("g", testGraph(t, 9)); err != nil {
		t.Fatal(err)
	}
	h1, err := reg.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	victim := h1.Graph().NodesByLabel("Person")[0]
	if _, err := reg.Mutate("g", []graph.Mutation{{Op: graph.MutRemoveNode, Node: victim}}); err != nil {
		t.Fatal(err)
	}
	h2, err := reg.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	if h1.Graph().Version() != 1 || !h1.Graph().Alive(victim) {
		t.Errorf("h1 lost its generation: v%d alive=%v", h1.Graph().Version(), h1.Graph().Alive(victim))
	}
	if h2.Graph().Version() != 2 || h2.Graph().Alive(victim) {
		t.Errorf("h2 on stale generation: v%d alive=%v", h2.Graph().Version(), h2.Graph().Alive(victim))
	}
	if h1.Engine().Graph() != h1.Graph() || h2.Engine().Graph() != h2.Graph() {
		t.Error("handle engine and graph disagree on the generation")
	}
	if h1.Engine() == h2.Engine() {
		t.Error("two generations share one engine")
	}
	if err := reg.Remove("g"); err != nil {
		t.Fatal(err)
	}
	// Leases survive removal; release in either order.
	if got := len(h1.Graph().NodesByLabel("Person")); got == 0 {
		t.Error("h1 graph unreadable after Remove")
	}
	h2.Release()
	h1.Release()
}

// TestCompactAfterTriggersCheckpoint: crossing the CompactAfter threshold
// kicks off a background checkpoint that rotates the on-disk pair.
func TestCompactAfterTriggersCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := startServer(t, Options{SnapshotDir: dir, CompactAfter: 4})
	defer shutdown(t, s1, ts1)
	uploadGraph(t, ts1.URL, "auto", testGraph(t, 17))

	res := mutate(t, ts1.URL, "auto", `[
		{"op":"removeNode","node":0},
		{"op":"removeNode","node":1},
		{"op":"setAttr","node":2,"attr":"title","value":"Director"},
		{"op":"setAttr","node":3,"attr":"title","value":"Director"},
		{"op":"addNode","label":"Person","attrs":{"gender":"female","title":"Engineer","yearsOfExp":"2"}}
	]`, http.StatusOK)
	if !res.Compacting {
		t.Fatal("threshold batch did not report Compacting")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		info, _ := s1.Registry().Info("auto")
		if info.Epoch == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background checkpoint never landed (epoch %d)", info.Epoch)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got, want := listDir(t, dir), []string{"auto" + walExt, "auto@1" + snapExt}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after auto checkpoint: %v, want %v", got, want)
	}
	// The graph keeps serving and mutating across the rotation.
	if res := mutate(t, ts1.URL, "auto", `[{"op":"setAttr","node":5,"attr":"yearsOfExp","value":"9"}]`, http.StatusOK); res.Version == 0 {
		t.Fatal("post-checkpoint mutation failed")
	}
}

// TestRetiredEngineCountsLeasedWork: a job that still holds the handle of a
// generation a batch replaced keeps evaluating on that generation's engine;
// the graph's engine counters (and so /metrics) count that work while the
// lease lasts and keep it after the release folds the engine away.
func TestRetiredEngineCountsLeasedWork(t *testing.T) {
	r := NewRegistry()
	if err := r.Put("talent", testGraph(t, 31)); err != nil {
		t.Fatal(err)
	}
	h, err := r.Acquire("talent")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Mutate("talent", []graph.Mutation{{Op: graph.MutSetAttr, Node: 1, Attr: "yearsOfExp", Value: graph.Int(3)}}); err != nil {
		t.Fatal(err)
	}
	tpl, err := query.ParseString("template t\nnode u_o Person title = \"Director\"\noutput u_o\n")
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.NewInstance(tpl, query.Root(tpl))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.Engine().ParEvalNodeFiltered(context.Background(), q, q.T.Output, nil, nil); err != nil {
		t.Fatal(err)
	}
	leased, _ := r.Info("talent")
	h.Release()
	released, _ := r.Info("talent")
	for name, info := range map[string]GraphInfo{"leased": leased, "released": released} {
		if info.Engine.Evals != 1 || info.Engine.Cache.Misses == 0 {
			t.Errorf("%s: engine evals %d, candidate-list misses %d; want the old handle's evaluation counted",
				name, info.Engine.Evals, info.Engine.Cache.Misses)
		}
	}
	if released.Refs != 0 || released.Engine.Cache.Misses != leased.Engine.Cache.Misses {
		t.Errorf("after release: refs %d, misses %d (leased: %d)", released.Refs, released.Engine.Cache.Misses, leased.Engine.Cache.Misses)
	}
}
