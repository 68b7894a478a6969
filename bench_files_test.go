package fairsqg

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestBenchFilesRederive: every BENCH_<pr>.json (scripts/bench_pairs.sh with
// PR=<n>) parses, names its commit, parent, toolchain and a reproduce command
// per result, and its summary numbers — medians, quartiles, ratio, pairs won
// — re-derive from the runs it lists, so a table copied out of it cannot
// disagree with the measurements behind it. A result recorded under
// EXPECT_DIGEST (a sanctioned digest move) carries the parent's digest
// beside its own, and its own is the one the command expects.
func TestBenchFilesRederive(t *testing.T) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	type side struct {
		Median, Q1, Q3 float64
		Runs           []float64
	}
	type benchFile struct {
		PR                 int
		Commit, Parent, Go string
		Nproc              int
		Results            []struct {
			Workload, Digest, Reproduce string
			ParentDigest                string `json:"parentDigest"`
			Seed, Pairs                 int
			Metrics                     []struct {
				Name, Unit, Better string
				Parent, Change     side
				Ratio              float64
				PairsWon           int `json:"pairs_won"`
			}
		}
	}
	quantile := func(runs []float64, q float64) float64 { // linear interpolation, as the script's
		s := append([]float64(nil), runs...)
		sort.Float64s(s)
		pos := float64(len(s)-1) * q
		lo := int(pos)
		if lo >= len(s)-1 {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-6*math.Max(math.Abs(a), math.Abs(b)) }
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var doc benchFile
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if doc.PR == 0 || doc.Commit == "" || doc.Parent == "" || doc.Go == "" || doc.Nproc == 0 || len(doc.Results) == 0 {
			t.Errorf("%s: incomplete header: pr %d commit %q parent %q go %q nproc %d, %d results",
				file, doc.PR, doc.Commit, doc.Parent, doc.Go, doc.Nproc, len(doc.Results))
		}
		for _, r := range doc.Results {
			if r.Digest == "" || r.Reproduce == "" || r.Pairs == 0 || len(r.Metrics) == 0 {
				t.Errorf("%s %s seed %d: incomplete result", file, r.Workload, r.Seed)
			}
			expect := strings.Contains(r.Reproduce, "EXPECT_DIGEST=")
			if expect != (r.ParentDigest != "") || expect && !strings.Contains(r.Reproduce, "EXPECT_DIGEST="+r.Digest+" ") {
				t.Errorf("%s %s seed %d: digest %q, parent digest %q, reproduced by %q",
					file, r.Workload, r.Seed, r.Digest, r.ParentDigest, r.Reproduce)
			}
			for _, m := range r.Metrics {
				where := file + " " + r.Workload + " " + m.Name
				if len(m.Parent.Runs) != r.Pairs || len(m.Change.Runs) != r.Pairs {
					t.Errorf("%s: %d and %d runs for %d pairs", where, len(m.Parent.Runs), len(m.Change.Runs), r.Pairs)
					continue
				}
				won := 0
				for i := range m.Parent.Runs {
					if d := m.Change.Runs[i] - m.Parent.Runs[i]; m.Better == "higher" && d > 0 || m.Better == "lower" && d < 0 {
						won++
					}
				}
				for name, s := range map[string]side{"parent": m.Parent, "change": m.Change} {
					if !near(s.Median, quantile(s.Runs, 0.5)) || !near(s.Q1, quantile(s.Runs, 0.25)) || !near(s.Q3, quantile(s.Runs, 0.75)) {
						t.Errorf("%s %s: median %v [%v–%v] does not re-derive from %v", where, name, s.Median, s.Q1, s.Q3, s.Runs)
					}
				}
				if !near(m.Ratio, m.Change.Median/m.Parent.Median) || won != m.PairsWon {
					t.Errorf("%s: ratio %v, %d pairs won; the runs give %v and %d", where, m.Ratio, m.PairsWon, m.Change.Median/m.Parent.Median, won)
				}
			}
		}
	}
}
