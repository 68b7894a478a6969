package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"fairsqg/internal/pareto"
)

func durations(ms ...int) []time.Duration {
	out := make([]time.Duration, len(ms))
	for i, m := range ms {
		out[i] = time.Duration(m) * time.Millisecond
	}
	return out
}

func TestBestOfTakesPerOpMinimumOverPasses(t *testing.T) {
	passes := [][]time.Duration{
		durations(30, 5, 0, 9),
		durations(10, 7, 0, 0),
		durations(20, 6, 0, 8),
	}
	got := bestOf(passes)
	// Op 2 failed in every pass (no sample); op 3 failed in one pass only.
	if want := durations(10, 5, 0, 8); !reflect.DeepEqual(got, want) {
		t.Fatalf("bestOf = %v, want %v", got, want)
	}
	if bestOf(nil) != nil {
		t.Fatal("bestOf(nil) should be nil")
	}
}

func TestPercentileNearestRankAndTailRule(t *testing.T) {
	samples := make([]time.Duration, 110)
	for i := range samples {
		samples[i] = time.Duration(110-i) * time.Millisecond // descending: percentile must sort
	}
	p50, ok := percentile(samples, 0.5)
	if p50 != 55*time.Millisecond || !ok {
		t.Fatalf("p50 = %v (ok=%v), want 55ms", p50, ok)
	}
	// 110 samples: rank ceil(0.9*110) = 99, eleven samples beyond it.
	p90, ok := percentile(samples, 0.9)
	if p90 != 99*time.Millisecond || !ok {
		t.Fatalf("p90 = %v (ok=%v), want 99ms with a sampled tail", p90, ok)
	}
	// 100 samples leave exactly ten beyond p90; 99 leave nine.
	if _, ok := percentile(samples[:100], 0.9); !ok {
		t.Fatal("100 samples leave ten beyond p90: the tail rule should hold")
	}
	if _, ok := percentile(samples[:99], 0.9); ok {
		t.Fatal("99 samples leave nine beyond p90: the tail rule should fail")
	}
	// Failed ops (no sample) do not count.
	withFailed := append(durations(0, 0, 0), samples[:99]...)
	if _, ok := percentile(withFailed, 0.9); ok {
		t.Fatal("failed ops must not count as samples beyond the percentile")
	}
	if d, ok := percentile(nil, 0.9); d != 0 || ok {
		t.Fatal("no samples: want 0, false")
	}
}

func TestSpreadAndMedian(t *testing.T) {
	if got := relSpread([]float64{100, 110, 105}); got != 10.0/105 {
		t.Fatalf("relSpread = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Fatalf("median = %v, want the lower middle 2", got)
	}
	if relSpread([]float64{7}) != 0 || median(nil) != 0 {
		t.Fatal("degenerate inputs should read 0")
	}
}

func TestSpanSelfTime(t *testing.T) {
	us := time.Microsecond
	spans := []span{
		{id: 1, name: "op", start: 0, end: 100 * us},
		{id: 2, parent: 1, name: "load", start: 10 * us, end: 30 * us},
		// Two overlapping children cover 40..80 once, not twice.
		{id: 3, parent: 1, name: "run", start: 40 * us, end: 70 * us},
		{id: 4, parent: 1, name: "run", start: 60 * us, end: 80 * us},
		// A grandchild takes from its parent, not from the root.
		{id: 5, parent: 3, name: "verify", start: 45 * us, end: 50 * us},
		// A child sticking out of its parent is clipped to it.
		{id: 6, parent: 1, name: "late", start: 90 * us, end: 130 * us},
		{id: 7, parent: 1, name: "mark", start: 20 * us, end: 20 * us, instant: true},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"op":     (100 - 20 - 40 - 10) * us,
		"load":   20 * us,
		"run":    (30 - 5 + 20) * us,
		"verify": 5 * us,
		"late":   40 * us,
	}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("selfTimes = %v, want %v", self, want)
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	id := tr.begin(0, 1, 0, "x")
	tr.end(id)
	tr.mark(id, 1, 0, "m")
	if id != 0 || tr.snapshot() != nil {
		t.Fatal("a nil tracer must record nothing")
	}
}

func TestDigestIgnoresOrderAndFloatNoise(t *testing.T) {
	a := &front{eps: 0.1, spawned: 9, verified: 7, feasible: 4, pruned: 2,
		points: []pareto.Point{{Div: 10, Cov: 3}, {Div: 2, Cov: 8}}}
	b := &front{eps: 0.1, spawned: 9, verified: 7, feasible: 4, pruned: 2,
		points: []pareto.Point{{Div: 2.0000001, Cov: 8}, {Div: 10, Cov: 3.0000001}}}
	if a.digest() != b.digest() {
		t.Fatalf("digests differ: %q vs %q", a.digest(), b.digest())
	}
	c := *a
	c.verified = 8
	if a.digest() == c.digest() {
		t.Fatal("a counter change must change the digest")
	}
	if digestBoxes(a.digest()) != digestBoxes(c.digest()) {
		t.Fatal("the box part must not depend on counters")
	}
	ids := []string{"x", "y"}
	if runDigest(ids, []string{"1", "2"}) != runDigest([]string{"y", "x"}, []string{"2", "1"}) {
		t.Fatal("the run digest must not depend on op order")
	}
}

// TestBenchmarkFileMatchesTables keeps BENCHMARK.json and the metric
// tables in step: names, units, bounds and workloads.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name  string  `json:"name"`
			Unit  string  `json:"unit"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	var e2e, layer []metricDef
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Bound})
	}
	for _, m := range doc.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, 0})
	}
	if !reflect.DeepEqual(e2e, endToEndMetrics) {
		t.Errorf("end_to_end %v, want %v", e2e, endToEndMetrics)
	}
	if !reflect.DeepEqual(layer, perLayerMetrics) {
		t.Errorf("per_layer differs from perLayerMetrics")
	}
}

func TestTemplatesParse(t *testing.T) {
	for _, prefix := range []string{"lki_", "dbp_"} {
		names := templateNames(prefix)
		if len(names) < 6 {
			t.Fatalf("%s: only %d templates embedded", prefix, len(names))
		}
		shapes := map[string]bool{}
		for _, n := range names {
			if _, err := templateText(n); err != nil {
				t.Errorf("%s: %v", n, err)
			}
			shapes[n[len(prefix):len(n)-2]] = true
		}
		for _, shape := range []string{"star", "chain", "tree", "cycle"} {
			if !shapes[shape] {
				t.Errorf("%s: no %s template", prefix, shape)
			}
		}
	}
}

// TestInputsDeterministicUnderSeed: the same seed writes the same op list,
// stream and mutation script; another seed reorders the same ops.
func TestInputsDeterministicUnderSeed(t *testing.T) {
	prep := func(workload string, seed int64) (*inputs, string) {
		dir := t.TempDir()
		if err := prepare(dir, workload, seed, "smoke"); err != nil {
			t.Fatal(err)
		}
		in, err := readInputs(dir)
		if err != nil {
			t.Fatal(err)
		}
		return in, dir
	}
	ids := func(in *inputs) []string {
		out := make([]string, len(in.Ops))
		for i := range in.Ops {
			out[i] = in.Ops[i].ID
		}
		return out
	}
	a, _ := prep("gen-score", 3)
	b, _ := prep("gen-score", 3)
	c, _ := prep("gen-score", 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("gen-score: same seed, different inputs")
	}
	if reflect.DeepEqual(ids(a), ids(c)) {
		t.Fatal("gen-score: another seed should reorder the ops")
	}
	set := func(xs []string) map[string]bool {
		m := map[string]bool{}
		for _, x := range xs {
			m[x] = true
		}
		return m
	}
	if !reflect.DeepEqual(set(ids(a)), set(ids(c))) {
		t.Fatal("gen-score: seeds must run the same set of ops")
	}

	la, da := prep("live-mutate", 3)
	lb, db := prep("live-mutate", 3)
	lc, dc := prep("live-mutate", 4)
	if !reflect.DeepEqual(la, lb) {
		t.Fatal("live-mutate: same seed, different stream")
	}
	if reflect.DeepEqual(la.Stream, lc.Stream) {
		t.Fatal("live-mutate: another seed should reorder the stream")
	}
	read := func(dir, name string) string {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	for _, f := range []string{scriptFile, restartLog} {
		if read(da, f) != read(db, f) {
			t.Fatalf("live-mutate: same seed, different %s", f)
		}
	}
	if read(da, scriptFile) == read(dc, scriptFile) {
		t.Fatal("live-mutate: another seed should pick other mutation targets")
	}
}

// TestSmokeAllWorkloads runs every workload end to end at the smoke
// scale, untraced and traced: zero failed ops, every metric present.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads; skipped under -short")
	}
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			dir := t.TempDir()
			if err := prepare(dir, w, 1, "smoke"); err != nil {
				t.Fatalf("%s: prepare: %v", w, err)
			}
			cfg := runConfig{workload: w, seed: 1, seconds: 0, scale: "smoke", trace: trace}
			if trace {
				cfg.traceOut = filepath.Join(dir, "trace.json")
			}
			rep, err := runWorkload(cfg, dir)
			if err != nil {
				t.Fatalf("%s (trace=%v): %v", w, trace, err)
			}
			if !rep.correct || rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s (trace=%v): correct=%v failed=%d/%d notes=%v", w, trace, rep.correct, rep.failed, rep.attempted, rep.notes)
			}
			for _, d := range rep.defs {
				v, ok := rep.metrics[d.name]
				if !ok {
					t.Errorf("%s (trace=%v): metric %s missing", w, trace, d.name)
				}
				if !trace && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, v)
				}
			}
			if trace {
				if _, err := os.Stat(cfg.traceOut); err != nil {
					t.Errorf("%s: trace file: %v", w, err)
				}
			}
		}
	}
}
