package bench

import (
	"strings"
	"sync"
	"testing"

	"fairsqg/internal/core"
	"fairsqg/internal/gen"
	"fairsqg/internal/pareto"
)

// quick is the package's shared quick-scale harness: the tests read one
// memo of datasets, workloads and runs, so the package pays each workload
// once. A test that must make its own runs takes a fresh quickHarness.
var quick = sync.OnceValue(quickHarness)

// quickHarness shrinks every dataset so the whole experiment suite runs in
// test time.
func quickHarness() *Harness {
	return New(Options{
		Nodes:     map[string]int{gen.DBP: 2500, gen.LKI: 3000, gen.Cite: 2500},
		Seed:      1,
		TotalC:    20,
		MaxDomain: 4,
		MaxPairs:  2000,
		StreamLen: 64,
	})
}

func TestExperimentsListAndUnknown(t *testing.T) {
	h := quick()
	if len(Experiments()) < 15 {
		t.Errorf("experiment registry too small: %v", Experiments())
	}
	if _, err := h.Run("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestTable2(t *testing.T) {
	rows, err := quick().Run("table2")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Value < 2000 || r.Extra["E"] <= 0 || r.Extra["groups"] < 2 {
			t.Errorf("row %+v implausible", r)
		}
	}
	out := FormatRows(rows)
	if !strings.Contains(out, "== table2 ==") || !strings.Contains(out, "lki") {
		t.Errorf("FormatRows output:\n%s", out)
	}
}

func TestFig9aQuick(t *testing.T) {
	rows, err := quick().Run("fig9a")
	if err != nil {
		t.Fatal(err)
	}
	// 4 algorithms × 3 datasets.
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Series == "Kungs" {
			if r.Value < 0.999 {
				t.Errorf("Kungs I_ε = %v on %s, want 1", r.Value, r.X)
			}
			continue
		}
		// Approximation algorithms must respect their ε contract.
		if r.Value < -1e-6 || r.Value > 1+1e-6 {
			t.Errorf("%s on %s: I_ε = %v outside [0,1]", r.Series, r.X, r.Value)
		}
	}
}

func TestFig9bQuick(t *testing.T) {
	rows, err := quick().Run("fig9b")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 { // 4 algorithms × 5 ε values
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestFig9eQuick(t *testing.T) {
	rows, err := quick().Run("fig9e")
	if err != nil {
		t.Fatal(err)
	}
	// 2 algorithms × 2 λ_R × 10 deciles.
	if len(rows) != 40 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Anytime I_R is non-decreasing in explored fraction for a fixed
	// series (the archive only improves).
	bySeries := map[string][]Row{}
	for _, r := range rows {
		bySeries[r.Series] = append(bySeries[r.Series], r)
	}
	for s, rs := range bySeries {
		for i := 1; i < len(rs); i++ {
			if rs[i].Value < rs[i-1].Value-1e-9 {
				t.Errorf("%s: anytime I_R decreased at %s: %v -> %v", s, rs[i].X, rs[i-1].Value, rs[i].Value)
			}
		}
	}
}

func TestFig10aQuick(t *testing.T) {
	rows, err := quick().Run("fig10a")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Value < 0 || r.Extra["verified"] <= 0 {
			t.Errorf("row %+v implausible", r)
		}
	}
}

func TestFig11aQuick(t *testing.T) {
	rows, err := quick().Run("fig11a")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 { // 2 (batch,w) × 4 k
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Extra["size"] <= 0 {
			t.Errorf("online run kept nothing: %+v", r)
		}
	}
}

func TestFig11bQuick(t *testing.T) {
	rows, err := quick().Run("fig11b")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no checkpoints")
	}
	for _, r := range rows {
		// I_ε against the final enlarged ε must stay sane.
		if r.Value > 1+1e-9 {
			t.Errorf("checkpoint I_ε = %v > 1", r.Value)
		}
	}
}

func TestFig12Quick(t *testing.T) {
	rows, err := quick().Run("fig12")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("case study produced nothing")
	}
	for _, r := range rows {
		if r.Extra["romance"] < 0 || r.Extra["horror"] < 0 || r.Extra["answers"] <= 0 {
			t.Errorf("row %+v implausible", r)
		}
	}
}

func TestPruningQuick(t *testing.T) {
	rows, err := quick().Run("pruning")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Value < 0 || r.Value > 1 {
			t.Errorf("%s on %s saved %v of verifications", r.Series, r.X, r.Value)
		}
	}
}

func TestAblationQuick(t *testing.T) {
	rows, err := quick().Run("ablation")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestCBMQuick(t *testing.T) {
	rows, err := quick().Run("cbm")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestFig9cQuick(t *testing.T) {
	rows, err := quick().Run("fig9c")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 { // 4 algorithms × 4 |X_L| values
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestFig9dQuick(t *testing.T) {
	rows, err := quick().Run("fig9d")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestFig9fQuick(t *testing.T) {
	rows, err := quick().Run("fig9f")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 { // 3 algorithms × 4 C values
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Value < 0 || r.Value > 0.5+1e-9 {
			t.Errorf("I_R = %v outside [0, 0.5]", r.Value)
		}
	}
}

func TestFig9ghQuick(t *testing.T) {
	rows, err := quick().Run("fig9gh")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 { // 3 algorithms × |P| ∈ {2..5}
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestFig10dQuick(t *testing.T) {
	rows, err := quick().Run("fig10d")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Value < 0 || r.Extra["verified"] <= 0 {
			t.Errorf("row %+v implausible", r)
		}
	}
}

// TestKungsFrontIsReference checks that Kungs' exact front may stand in for
// the whole feasible set as the indicators' reference on the 9(a)–(d)
// workloads: the front ε-covers every feasible instance with ε_m = 0, and
// every approximation's I_ε and I_R read the same against either, bit for
// bit.
func TestKungsFrontIsReference(t *testing.T) {
	h := quick()
	sweeps := [][]setting{h.overall(), h.varyEps(), h.varyRangeVars(), h.varyEdgeVars()}
	for _, sweep := range sweeps {
		for _, s := range sweep {
			base, err := h.workload(s.p)
			if err != nil {
				t.Fatal(err)
			}
			r, err := core.NewRunner(base)
			if err != nil {
				t.Fatal(err)
			}
			feasible, err := r.AllFeasible()
			if err != nil {
				t.Fatal(err)
			}
			all := make([]pareto.Point, len(feasible))
			var divMax, covMax float64
			for i, v := range feasible {
				all[i] = v.Point
				divMax, covMax = max(divMax, v.Point.Div), max(covMax, v.Point.Cov)
			}
			front, fDiv, fCov, err := h.reference(s.p)
			if err != nil {
				t.Fatal(err)
			}
			if em := pareto.MinEps(front, all); em != 0 {
				t.Errorf("%s %s: Kungs' front needs ε_m = %v to cover the %d feasible points", s.p.dataset, s.x, em, len(all))
			}
			if fDiv != divMax || fCov != covMax {
				t.Errorf("%s %s: front maxima (%v, %v), feasible maxima (%v, %v)", s.p.dataset, s.x, fDiv, fCov, divMax, covMax)
			}
			for _, alg := range approxAlgorithms {
				res, err := h.result(s.p, alg)
				if err != nil {
					t.Fatal(err)
				}
				pts := res.Points()
				if a, b := pareto.EpsIndicator(pts, all, s.p.eps), pareto.EpsIndicator(pts, front, s.p.eps); a != b {
					t.Errorf("%s %s %s: I_ε %v against the feasible set, %v against the front", s.p.dataset, s.x, alg, a, b)
				}
				if a, b := pareto.RIndicator(pts, 0.5, divMax, covMax), pareto.RIndicator(pts, 0.5, fDiv, fCov); a != b {
					t.Errorf("%s %s %s: I_R %v against the feasible set, %v against the front", s.p.dataset, s.x, alg, a, b)
				}
			}
		}
	}
}

// TestTwinFiguresShareOneRun checks that a Fig. 10 row and its Fig. 9 twin
// are one run, that a Fig. 10 figure asked for alone makes the same runs,
// and that pruning reads Fig. 9(a)'s EnumQGen run. Fig. 10(c) is left out
// of the runs made alone: its runs cost as much as the rest of the
// package's tests together.
func TestTwinFiguresShareOneRun(t *testing.T) {
	h, fresh := quick(), quickHarness()
	run := func(h *Harness, exp string) []Row {
		t.Helper()
		rows, err := h.Run(exp)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	for _, x := range []string{"a", "b", "c", "d"} {
		quality, runtime := run(h, "fig9"+x), run(h, "fig10"+x)
		if len(quality) != len(runtime) {
			t.Fatalf("fig9%s/fig10%s: %d and %d rows", x, x, len(quality), len(runtime))
		}
		for i, r := range runtime {
			q := quality[i]
			if r.Series != q.Series || r.X != q.X || r.Value != q.Extra["sec"] || r.Extra["verified"] != q.Extra["verified"] {
				t.Errorf("fig10%s %s %s: %v s, %v verified; its twin %v s, %v verified",
					x, r.Series, r.X, r.Value, r.Extra["verified"], q.Extra["sec"], q.Extra["verified"])
			}
		}
		if x == "c" {
			continue
		}
		alone := run(fresh, "fig10"+x)
		if len(alone) != len(runtime) {
			t.Fatalf("fig10%s: %d rows alone, %d after fig9%s", x, len(alone), len(runtime), x)
		}
		for i, r := range runtime {
			for _, k := range []string{"verified", "spawned", "pruned"} {
				if a := alone[i].Extra[k]; a != r.Extra[k] {
					t.Errorf("fig10%s %s %s: %s %v alone, %v after fig9%s", x, r.Series, r.X, k, a, r.Extra[k], x)
				}
			}
		}
	}
	enum := map[string]float64{}
	for _, r := range run(h, "fig9a") {
		if r.Series == "EnumQGen" {
			enum[r.X] = r.Extra["verified"]
		}
	}
	for _, r := range run(h, "pruning") {
		if r.Extra["enumVerified"] != enum[r.X] {
			t.Errorf("pruning %s %s: enumVerified %v, fig9a's EnumQGen verified %v", r.Series, r.X, r.Extra["enumVerified"], enum[r.X])
		}
	}
}
