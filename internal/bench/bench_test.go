package bench

import (
	"strings"
	"testing"

	"fairsqg/internal/gen"
)

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
	h := quickHarness()
	if len(Experiments()) < 15 {
		t.Errorf("experiment registry too small: %v", Experiments())
	}
	if _, err := h.Run("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestTable2(t *testing.T) {
	rows, err := quickHarness().Run("table2")
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
	rows, err := quickHarness().Run("fig9a")
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
	rows, err := quickHarness().Run("fig9b")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 { // 4 algorithms × 5 ε values
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestFig9eQuick(t *testing.T) {
	rows, err := quickHarness().Run("fig9e")
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
	rows, err := quickHarness().Run("fig10a")
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
	rows, err := quickHarness().Run("fig11a")
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
	rows, err := quickHarness().Run("fig11b")
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
	rows, err := quickHarness().Run("fig12")
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
	rows, err := quickHarness().Run("pruning")
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
	rows, err := quickHarness().Run("ablation")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestCBMQuick(t *testing.T) {
	rows, err := quickHarness().Run("cbm")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestFig9cQuick(t *testing.T) {
	rows, err := quickHarness().Run("fig9c")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 { // 4 algorithms × 4 |X_L| values
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestFig9dQuick(t *testing.T) {
	rows, err := quickHarness().Run("fig9d")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestFig9fQuick(t *testing.T) {
	rows, err := quickHarness().Run("fig9f")
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
	rows, err := quickHarness().Run("fig9gh")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 { // 3 algorithms × |P| ∈ {2..5}
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestFig10dQuick(t *testing.T) {
	rows, err := quickHarness().Run("fig10d")
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
