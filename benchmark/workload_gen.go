package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"fairsqg/internal/core"
	"fairsqg/internal/graph"
)

// The two generation workloads run requests through the library the way
// the fairsqg CLI does: a fresh Runner per request, so every op starts
// with cold candidate and pair caches. They differ in what their inputs
// make expensive (see BENCHMARK.json and README.md) and in how the graph
// file is loaded.

// loader reads a prepared graph file the way the product would.
type loader struct {
	layerMetric string // which graph.* set-up metric the load time is
	load        func(dir string) (*graph.Graph, error)
}

var loadTSV = loader{
	layerMetric: "graph.parse_freeze_ms",
	load: func(dir string) (*graph.Graph, error) {
		f, err := os.Open(filepath.Join(dir, tsvFile))
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ReadTSV(f)
	},
}

var loadSnapshotHeap = loader{
	layerMetric: "graph.decode_v2_ms",
	load:        func(dir string) (*graph.Graph, error) { return graph.ReadSnapshotFile(filepath.Join(dir, snapFile)) },
}

func genWorkload(ld loader) *workload {
	return &workload{
		open: func(dir string, in *inputs) (session, error) {
			t0 := time.Now()
			g, err := ld.load(dir)
			if err != nil {
				return nil, err
			}
			return &genSession{in: in, g: g, ld: ld, loadTime: time.Since(t0)}, nil
		},
		setup: func(dir string, in *inputs) (time.Duration, error) {
			t0 := time.Now()
			g, err := ld.load(dir)
			if err != nil {
				return 0, err
			}
			defer g.Close()
			if _, err := runGeneration(g, &in.SetupOp, nil, nil); err != nil {
				return 0, err
			}
			return time.Since(t0), nil
		},
	}
}

type genSession struct {
	in       *inputs
	g        *graph.Graph
	ld       loader
	loadTime time.Duration
	// tracedRun holds each op's run duration in the traced pass.
	tracedRun []time.Duration
}

func (s *genSession) opIDs() []string { return s.in.opIDs() }

func (s *genSession) runPass(tr *tracer, lt *layerTrace) *passResult {
	pr := newPassResult(len(s.in.Ops))
	if tr != nil {
		s.tracedRun = make([]time.Duration, len(s.in.Ops))
	}
	start := time.Now()
	for i := range s.in.Ops {
		spec := &s.in.Ops[i]
		var hook func(core.VerifyEvent)
		opSpan := tr.begin(0, i, 0, "op")
		runSpan := tr.begin(opSpan, i, 0, "run")
		if tr != nil {
			hook = lt.hook(tr, runSpan, i, 0)
		}
		t0 := time.Now()
		f, err := runGeneration(s.g, spec, nil, hook)
		d := time.Since(t0)
		tr.end(runSpan)
		tr.end(opSpan)
		if err != nil {
			pr.errs[i] = err
			continue
		}
		pr.lat[i], pr.digest[i] = d, f.digest()
		if tr != nil {
			s.tracedRun[i] = d
			lt.addStats(f.stats, true)
		}
	}
	pr.wall = time.Since(start)
	return pr
}

func (s *genSession) verify(best *passResult, _ *layerTrace) (map[int]error, []error) {
	perOp := make(map[int]error)
	byID := s.in.opIndex()
	// A par op explores the same lattice slab by slab; its boxes must be
	// its rf twin's (counters legitimately differ: pruning is per slab).
	var small []int
	for i := range s.in.Ops {
		spec := &s.in.Ops[i]
		if spec.Small && best.digest[i] != "" {
			small = append(small, i)
		}
		if spec.Twin == "" || best.digest[i] == "" {
			continue
		}
		j, ok := byID[spec.Twin]
		if !ok || best.digest[j] == "" {
			perOp[i] = fmt.Errorf("rf twin %s has no result", spec.Twin)
			continue
		}
		if a, b := digestBoxes(best.digest[i]), digestBoxes(best.digest[j]); a != b {
			perOp[i] = fmt.Errorf("par boxes %s differ from rf twin's %s", a, b)
		}
	}
	sort.Ints(small)
	for _, i := range sampleOps(s.in.Seed, small) {
		spec := &s.in.Ops[i]
		f, err := runGeneration(s.g, spec, nil, nil)
		if err != nil {
			perOp[i] = err
			continue
		}
		ok, err := epsCovers(s.g, spec, f)
		if err != nil {
			perOp[i] = err
		} else if !ok {
			perOp[i] = fmt.Errorf("front does not ε-cover the feasible instances (ε=%g)", spec.Eps)
		}
	}
	return perOp, nil
}

// digestBoxes returns the box part of a digest (everything before the
// counters).
func digestBoxes(d string) string {
	boxes, _, _ := strings.Cut(d, " ")
	return boxes
}

func (s *genSession) replay(tr *tracer, lt *layerTrace) {
	lt.set(s.ld.layerMetric, ms(s.loadTime))
	lt.set("graph.index_mb", float64(s.g.Memory().IndexBytes)/(1<<20))
	byID := s.in.opIndex()
	var speedups, skews []float64
	for i := range s.in.Ops {
		spec := &s.in.Ops[i]
		lt.replayOp(tr, i, s.g, spec, s.tracedRun[i])
		if spec.Twin == "" {
			continue
		}
		if j, ok := byID[spec.Twin]; ok && s.tracedRun[i] > 0 && s.tracedRun[j] > 0 {
			speedups = append(speedups, s.tracedRun[j].Seconds()/s.tracedRun[i].Seconds())
		}
		if skew, ok := slabSkew(s.g, spec); ok {
			skews = append(skews, skew)
		}
	}
	lt.set("core.par_speedup", median(speedups))
	lt.set("core.slab_skew", median(skews))
}

// slabSkew runs a par request's slabs one by one and returns the slowest
// slab's time over the mean: how unevenly PlanSlabs cut the lattice, and
// so the best speed-up more workers could give.
func slabSkew(g *graph.Graph, spec *opSpec) (float64, bool) {
	cfg, err := buildConfig(g, spec)
	if err != nil {
		return 0, false
	}
	plan := core.PlanSlabs(cfg.Template)
	if plan.NumSlabs() < 2 {
		return 0, false
	}
	var total, slowest time.Duration
	for _, level := range plan.Levels {
		r, err := core.NewRunner(cfg)
		if err != nil {
			return 0, false
		}
		t0 := time.Now()
		_, err = r.RunSlab(plan.SplitVar, level)
		d := time.Since(t0)
		r.Close()
		if err != nil {
			return 0, false
		}
		total += d
		slowest = max(slowest, d)
	}
	return slowest.Seconds() / (total.Seconds() / float64(plan.NumSlabs())), true
}

func (s *genSession) close() error { return s.g.Close() }
