package server

import (
	"fmt"
	"net/http"
	"reflect"
	"testing"
	"unsafe"

	"fairsqg/internal/match"
)

// runJobOn submits spec, waits for it and returns its result.
func runJobOn(t *testing.T, baseURL string, spec JobSpec) *JobResult {
	t.Helper()
	st := pollDone(t, baseURL, submitJob(t, baseURL, spec).ID)
	if st.State != JobDone {
		t.Fatalf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	res := new(JobResult)
	doJSON(t, http.MethodGet, baseURL+"/v1/jobs/"+st.ID+"/result", nil, http.StatusOK, res)
	return res
}

// front is what a job answered, without how it got there: the queries with
// their points and the lattice counters.
func front(res *JobResult) string {
	return fmt.Sprint(res.Queries, res.Stats.Spawned, res.Stats.Verified, res.Stats.Feasible, res.Stats.Pruned)
}

// sharedStats reads a graph's store gauges off /metrics.
func sharedStats(t *testing.T, baseURL, name string) match.StoreStats {
	t.Helper()
	var doc struct {
		Graphs map[string]struct {
			Engine struct{ Shared match.StoreStats } `json:"engine"`
		} `json:"graphs"`
	}
	doJSON(t, http.MethodGet, baseURL+"/metrics", nil, http.StatusOK, &doc)
	return doc.Graphs[name].Engine.Shared
}

// TestStoreDiesWithItsGeneration: jobs on one generation answer each other
// from the engine's store, and say so in their Stats and on /metrics; a
// mutation batch installs an engine whose store is empty, so the next job
// equals the same job on a server restored from the mutated graph — no
// answer, partition or feature table crosses swapServed — and the mapping is
// released on drain all the same.
func TestStoreDiesWithItsGeneration(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SnapshotDir: dir, MmapGraphs: true}
	s1, ts1 := startServer(t, opts)
	uploadGraph(t, ts1.URL, "talent", testGraph(t, 7))
	specs := map[string]JobSpec{}
	for _, alg := range []string{"bi", "rf", "enum"} {
		spec := testSpec("talent")
		spec.Algorithm, spec.ProgressEvery = alg, -1
		specs[alg] = spec
	}

	before := map[string]string{}
	for alg, spec := range specs {
		before[alg] = front(runJobOn(t, ts1.URL, spec))
	}
	for alg, spec := range specs {
		spec.Groups.Cover, spec.Eps = 2, 0.1 // another job over the same template
		runJobOn(t, ts1.URL, spec)
		res := runJobOn(t, ts1.URL, specs[alg])
		if got := front(res); got != before[alg] {
			t.Errorf("%s on a warm engine:\n%s\nfirst run:\n%s", alg, got, before[alg])
		}
		if res.Stats.AnswersReused == 0 || res.Stats.DerivedReused != 2 {
			t.Errorf("%s: a repeated job reused %d answers and %d structures", alg, res.Stats.AnswersReused, res.Stats.DerivedReused)
		}
	}
	warm := sharedStats(t, ts1.URL, "talent")
	if warm.Entries < 4 || warm.Hits == 0 || warm.Bytes == 0 || warm.Bytes > warm.Ceiling {
		t.Errorf("store gauges after nine jobs: %+v", warm)
	}

	// Drop five directors, age one person and move some across groups:
	// answers, ladders and the partition all change.
	mutate(t, ts1.URL, "talent", `[{"op":"removeNode","node":0},{"op":"removeNode","node":4},{"op":"removeNode","node":8},
		{"op":"removeNode","node":12},{"op":"removeNode","node":16},
		{"op":"setAttr","node":1,"attr":"yearsOfExp","value":"40"},{"op":"setAttr","node":20,"attr":"gender","value":"female"},
		{"op":"setAttr","node":24,"attr":"gender","value":"female"},{"op":"setAttr","node":28,"attr":"gender","value":"female"},
		{"op":"setAttr","node":32,"attr":"gender","value":"male"},{"op":"setAttr","node":36,"attr":"gender","value":"male"},
		{"op":"setAttr","node":40,"attr":"gender","value":"male"}]`, http.StatusOK)
	if cold := sharedStats(t, ts1.URL, "talent"); cold.Entries != 0 || cold.Hits != 0 || cold.Ceiling == 0 {
		t.Errorf("store of the engine a batch installed: %+v", cold)
	}
	mutated := map[string]string{}
	for alg, spec := range specs {
		mutated[alg] = front(runJobOn(t, ts1.URL, spec))
		if mutated[alg] == before[alg] {
			t.Errorf("%s: the batch did not change the result; the test proves nothing", alg)
		}
		if again := front(runJobOn(t, ts1.URL, spec)); again != mutated[alg] {
			t.Errorf("%s repeated on the mutated generation:\n%s\nfirst:\n%s", alg, again, mutated[alg])
		}
	}
	shutdown(t, s1, ts1)
	if got := mappedBytesGauge(t, s1); got != 0 || stillMapped(dir) {
		t.Errorf("after drain: mappedBytes %d, still mapped %v", got, stillMapped(dir))
	}

	// A server that never saw the old generation: base snapshot + log.
	s2, ts2 := startServer(t, opts)
	for alg, spec := range specs {
		if got := front(runJobOn(t, ts2.URL, spec)); got != mutated[alg] {
			t.Errorf("%s: mutated\n%s\nrebuilt\n%s", alg, mutated[alg], got)
		}
	}
	shutdown(t, s2, ts2)
	if got := mappedBytesGauge(t, s2); got != 0 {
		t.Errorf("rebuilt server after drain: mappedBytes %d", got)
	}
}

// TestProgressHubGrowsToItsCap: a hub keeps what was published, not a ring
// allocated for the worst case — a finished job is retained with its hub —
// and past the cap it still replays the last cap events in order.
func TestProgressHubGrowsToItsCap(t *testing.T) {
	h := newProgressHub(0)
	for i := 0; i < 20; i++ {
		h.publish(JobEvent{Type: "progress", Verified: i})
	}
	h.close()
	if held := cap(h.buf) * int(unsafe.Sizeof(JobEvent{})); held >= 4096 {
		t.Errorf("a finished 20-event job retains %d bytes of events", held)
	}
	if replay, live, _ := h.subscribe(); len(replay) != 20 || live != nil || replay[0].Seq != 1 || replay[19].Seq != 20 {
		t.Errorf("replay of 20 events: %d, first %+v", len(replay), replay[0])
	}

	h = newProgressHub(8)
	for i := 1; i <= 21; i++ {
		h.publish(JobEvent{Type: "progress", Verified: i})
		replay, _, cancel := h.subscribe()
		cancel()
		want := make([]int, 0, 8)
		for seq := max(1, i-7); seq <= i; seq++ {
			want = append(want, seq)
		}
		got := make([]int, len(replay))
		for k, ev := range replay {
			got[k] = ev.Seq
		}
		if !reflect.DeepEqual(got, want) || len(h.buf) > 8 {
			t.Fatalf("after %d events: replay %v, want %v (ring of %d)", i, got, want, len(h.buf))
		}
	}
}
