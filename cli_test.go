package fairsqg

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"fairsqg/internal/cluster"
)

// buildCLI compiles one of the repo's commands into a temp dir.
func buildCLI(t *testing.T, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return wd
}

func TestGraphgenCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildCLI(t, "graphgen")
	out := filepath.Join(t.TempDir(), "g.tsv")
	cmd := exec.Command(bin, "-dataset", "lki", "-nodes", "500", "-seed", "3", "-out", out, "-stats")
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("graphgen: %v\n%s", err, msg)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := ReadGraphTSV(f)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() < 400 || g.NumEdges() == 0 {
		t.Errorf("generated graph too small: %s", SummarizeGraph(g))
	}
	// Unknown format fails loudly.
	bad := exec.Command(bin, "-format", "xml")
	if err := bad.Run(); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestFairsqgCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildCLI(t, "fairsqg")
	save := filepath.Join(t.TempDir(), "workload.json")
	cmd := exec.Command(bin,
		"-dataset", "lki", "-nodes", "1500", "-seed", "2",
		"-canon", "talent", "-max-domain", "3",
		"-cover", "3", "-alg", "bi", "-eps", "0.2",
		"-dist-attrs", "major,yearsOfExp", "-save", save)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("fairsqg: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "q1:") {
		t.Errorf("no suggestions in output:\n%s", out)
	}
	if m := regexp.MustCompile(`\nphases: [^\n]*, cover [^,\n]*, derive ([^,\n]*), update [^\n]*\n`).FindSubmatch(out); m == nil || string(m[1]) == "0s" {
		t.Errorf("no phases line with a running derive clock:\n%s", out)
	}
	// The saved workload loads back.
	f, err := os.Open(save)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, instances, err := LoadWorkload(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(instances) == 0 {
		t.Error("saved workload empty")
	}
	// Unknown algorithm fails.
	bad := exec.Command(bin, "-dataset", "lki", "-nodes", "500", "-alg", "zz")
	if err := bad.Run(); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestExperimentsCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildCLI(t, "experiments")
	out, err := exec.Command(bin, "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("experiments -list: %v\n%s", err, out)
	}
	for _, id := range []string{"table2", "fig9a", "fig11b", "fig12"} {
		if !strings.Contains(string(out), id) {
			t.Errorf("-list missing %s", id)
		}
	}
	// table2 at quick scale runs fast and prints rows; CSV mode too.
	run := exec.Command(bin, "-exp", "table2", "-scale", "quick", "-csv")
	msg, err := run.CombinedOutput()
	if err != nil {
		t.Fatalf("experiments table2: %v\n%s", err, msg)
	}
	if !strings.Contains(string(msg), "experiment,series,x,value,extra") {
		t.Errorf("CSV header missing:\n%s", msg)
	}
	// Unknown experiment exits non-zero.
	if err := exec.Command(bin, "-exp", "zzz").Run(); err == nil {
		t.Error("unknown experiment accepted")
	}
	// Unknown scale exits non-zero.
	if err := exec.Command(bin, "-scale", "zzz").Run(); err == nil {
		t.Error("unknown scale accepted")
	}
}

// wantExitError runs the command and asserts it exits non-zero with a
// diagnostic on stderr.
func wantExitError(t *testing.T, why string, bin string, args ...string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Errorf("%s: exited 0, want failure\n%s", why, out)
		return
	}
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) {
		t.Fatalf("%s: %v (not an exit error)", why, err)
	}
	if exitErr.ExitCode() == 0 {
		t.Errorf("%s: exit code 0, want non-zero", why)
	}
	if len(strings.TrimSpace(string(out))) == 0 {
		t.Errorf("%s: failed silently, want a message", why)
	}
}

// TestCLIErrorExitCodes checks that bad flags and files make every
// command fail loudly with a non-zero exit code.
func TestCLIErrorExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	graphgen := buildCLI(t, "graphgen")
	wantExitError(t, "graphgen negative -nodes", graphgen, "-nodes", "-5")
	wantExitError(t, "graphgen unknown dataset", graphgen, "-dataset", "zzz")
	wantExitError(t, "graphgen stray args", graphgen, "stray")
	wantExitError(t, "graphgen unwritable -out", graphgen, "-nodes", "300", "-out", filepath.Join(t.TempDir(), "no", "such", "dir", "g.tsv"))

	fairsqg := buildCLI(t, "fairsqg")
	wantExitError(t, "fairsqg bad -max-domain", fairsqg, "-max-domain", "0")
	wantExitError(t, "fairsqg negative -cover", fairsqg, "-cover", "-1")
	wantExitError(t, "fairsqg missing graph file", fairsqg, "-graph", filepath.Join(t.TempDir(), "nope.tsv"))
	wantExitError(t, "fairsqg missing template file", fairsqg, "-dataset", "lki", "-nodes", "500", "-template", filepath.Join(t.TempDir(), "nope.tpl"))
	wantExitError(t, "fairsqg unknown -canon", fairsqg, "-dataset", "lki", "-nodes", "500", "-canon", "zzz")
	wantExitError(t, "fairsqg bad online knobs", fairsqg, "-alg", "online", "-k", "0")
	wantExitError(t, "fairsqg bad -eps", fairsqg, "-dataset", "lki", "-nodes", "500", "-eps", "-0.5")

	badBatch := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(badBatch, []byte(`[{"op":"zap"}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	wantExitError(t, "fairsqg missing -mutations file", fairsqg, "-dataset", "lki", "-nodes", "500",
		"-mutations", filepath.Join(t.TempDir(), "nope.json"))
	wantExitError(t, "fairsqg unknown mutation op", fairsqg, "-dataset", "lki", "-nodes", "500",
		"-mutations", badBatch)

	experiments := buildCLI(t, "experiments")
	wantExitError(t, "experiments stray args", experiments, "stray")
}

// TestFairsqgMutationsFlag applies an offline mutation batch before
// generation and checks both directions of the -save-snapshot
// interaction: a tombstone-free mutated graph converts, a batch with
// node removals is rejected with the checkpoint hint.
func TestFairsqgMutationsFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	fairsqg := buildCLI(t, "fairsqg")

	removing := filepath.Join(dir, "removing.json")
	if err := os.WriteFile(removing,
		[]byte(`[{"op":"removeNode","node":0},{"op":"setAttr","node":5,"attr":"yearsOfExp","value":"33"}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(fairsqg, "-dataset", "lki", "-nodes", "500", "-seed", "3",
		"-mutations", removing, "-canon", "talent", "-max-domain", "3", "-cover", "3",
		"-alg", "bi", "-eps", "0.2").CombinedOutput()
	if err != nil {
		t.Fatalf("fairsqg -mutations: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "mutations: 2 ops applied (version 2)") {
		t.Errorf("missing mutation summary line:\n%s", out)
	}

	setOnly := filepath.Join(dir, "set.json")
	if err := os.WriteFile(setOnly,
		[]byte(`[{"op":"setAttr","node":5,"attr":"yearsOfExp","value":"33"}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, "mut.fsnap")
	if out, err := exec.Command(fairsqg, "-dataset", "lki", "-nodes", "500", "-seed", "3",
		"-mutations", setOnly, "-save-snapshot", snap).CombinedOutput(); err != nil {
		t.Fatalf("fairsqg -mutations -save-snapshot: %v\n%s", err, out)
	}
	f, err := os.Open(snap)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ReadGraphSnapshot(f)
	f.Close()
	if err != nil {
		t.Fatalf("reading mutated snapshot: %v", err)
	}
	if got := g.Attr(5, "yearsOfExp"); !got.Equal(Num(33)) {
		t.Errorf("mutated snapshot lost the write: yearsOfExp = %v", got)
	}

	// Tombstoned graphs cannot snapshot; the CLI surfaces the codec's
	// checkpoint hint instead of writing a resurrected-node image.
	out, err = exec.Command(fairsqg, "-dataset", "lki", "-nodes", "500", "-seed", "3",
		"-mutations", removing, "-save-snapshot", filepath.Join(dir, "nope.fsnap")).CombinedOutput()
	if err == nil {
		t.Fatalf("tombstoned -save-snapshot succeeded:\n%s", out)
	}
	if !strings.Contains(string(out), "tombstoned") {
		t.Errorf("missing tombstone error, got:\n%s", out)
	}
}

// TestFairsqgKeepsPinnedLadders: a ladder line in the template text is the
// ladder the CLI runs with (it used to rebind every range variable against
// the graph), and the CLI binds exactly what cluster.BuildConfig — the
// server's and the workers' job builder — binds for the same text.
func TestFairsqgKeepsPinnedLadders(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bin := buildCLI(t, "fairsqg")
	run := func(text string) string {
		t.Helper()
		file := filepath.Join(dir, "t.tpl")
		if err := os.WriteFile(file, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(bin, "-dataset", "lki", "-nodes", "3000", "-seed", "1",
			"-template", file, "-max-domain", "4", "-cover", "3", "-alg", "bi", "-eps", "0.2").CombinedOutput()
		if err != nil {
			t.Fatalf("fairsqg -template: %v\n%s", err, out)
		}
		return string(out)
	}

	const pinned = "template pinned\nnode u_o Person yearsOfExp >= $x1\nladder $x1 5 10\noutput u_o\n"
	if out := run(pinned); !strings.Contains(out, "instance space 3\n") {
		t.Errorf("pinned ladder $x1 5 10 should give instance space 3:\n%s", out)
	}

	// One pinned and one unbound variable: the pinned ladder survives, the
	// other is bound from the graph, identically on both paths.
	const mixed = "template mixed\nnode u_o Person yearsOfExp >= $x1\nnode u1 Person yearsOfExp >= $x2\n" +
		"edge u1 u_o recommend\nladder $x1 5 10\noutput u_o\n"
	g, err := BuildDataset("lki", DatasetOptions{Nodes: 3000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := cluster.BuildConfig(cluster.JobPayload{
		Template: mixed, MaxDomain: 4,
		Groups: cluster.GroupsPayload{Label: "Person", Attr: "gender", Cover: 3},
	}, g)
	if err != nil {
		t.Fatal(err)
	}
	tpl, err := ParseTemplate(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if err := tpl.BindMissingDomains(g, DomainOptions{MaxValues: 4}); err != nil {
		t.Fatal(err)
	}
	for i, v := range cfg.Template.Vars {
		if !reflect.DeepEqual(v.Ladder, tpl.Vars[i].Ladder) {
			t.Errorf("variable %s: BuildConfig ladder %v, CLI binding %v", v.Name, v.Ladder, tpl.Vars[i].Ladder)
		}
	}
	if l := cfg.Template.Vars[0].Ladder; len(l) != 2 || !l[0].Equal(Num(5)) || !l[1].Equal(Num(10)) {
		t.Errorf("BuildConfig rebound the pinned ladder: %v", l)
	}
	want := fmt.Sprintf("instance space %d\n", cfg.Template.InstanceSpaceSize())
	if out := run(mixed); !strings.Contains(out, want) {
		t.Errorf("CLI and cluster.BuildConfig disagree, want %q:\n%s", want, out)
	}
}

// TestSnapshotCLIRoundTrip drives the offline-conversion path end to
// end: graphgen emits a binary snapshot, fairsqg converts a TSV graph
// with -save-snapshot, and both artifacts load back (including through
// fairsqg -graph x.fsnap, which must produce the same suggestions as the
// TSV source).
func TestSnapshotCLIRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()

	graphgen := buildCLI(t, "graphgen")
	genSnap := filepath.Join(dir, "gen.fsnap")
	if out, err := exec.Command(graphgen, "-dataset", "lki", "-nodes", "500", "-seed", "3",
		"-format", "snapshot", "-out", genSnap).CombinedOutput(); err != nil {
		t.Fatalf("graphgen -format snapshot: %v\n%s", err, out)
	}
	f, err := os.Open(genSnap)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ReadGraphSnapshot(f)
	f.Close()
	if err != nil {
		t.Fatalf("reading graphgen snapshot: %v", err)
	}
	if g.NumNodes() < 400 || g.NumEdges() == 0 {
		t.Errorf("snapshot graph too small: %s", SummarizeGraph(g))
	}

	// fairsqg conversion + warm load: TSV -> snapshot, then generate from
	// both and compare the suggestion lines.
	fairsqg := buildCLI(t, "fairsqg")
	tsv := filepath.Join(dir, "g.tsv")
	if out, err := exec.Command(graphgen, "-dataset", "lki", "-nodes", "1500", "-seed", "2",
		"-out", tsv).CombinedOutput(); err != nil {
		t.Fatalf("graphgen tsv: %v\n%s", err, out)
	}
	snap := filepath.Join(dir, "g.fsnap")
	if out, err := exec.Command(fairsqg, "-graph", tsv, "-save-snapshot", snap).CombinedOutput(); err != nil {
		t.Fatalf("fairsqg -save-snapshot: %v\n%s", err, out)
	}
	genArgs := func(graphFile string) []string {
		return []string{"-graph", graphFile, "-canon", "talent", "-max-domain", "3",
			"-cover", "3", "-alg", "bi", "-eps", "0.2"}
	}
	fromTSV, err := exec.Command(fairsqg, genArgs(tsv)...).Output()
	if err != nil {
		t.Fatalf("fairsqg from tsv: %v", err)
	}
	fromSnap, err := exec.Command(fairsqg, genArgs(snap)...).Output()
	if err != nil {
		t.Fatalf("fairsqg from snapshot: %v", err)
	}
	if string(fromTSV) != string(fromSnap) {
		t.Errorf("snapshot-loaded run differs from TSV run:\n--- tsv\n%s--- snapshot\n%s", fromTSV, fromSnap)
	}

	// The format is chosen by the lowercased extension, as in fairsqgd:
	// G.FSNAP and G.JSON load exactly like their lowercase names.
	jsonFile := filepath.Join(dir, "g.json")
	if out, err := exec.Command(graphgen, "-dataset", "lki", "-nodes", "1500", "-seed", "2",
		"-format", "json", "-out", jsonFile).CombinedOutput(); err != nil {
		t.Fatalf("graphgen json: %v\n%s", err, out)
	}
	for lower, upper := range map[string]string{snap: "G.FSNAP", jsonFile: "G.JSON"} {
		data, err := os.ReadFile(lower)
		if err != nil {
			t.Fatal(err)
		}
		upper = filepath.Join(dir, "upper", upper)
		if err := os.MkdirAll(filepath.Dir(upper), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(upper, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, err := exec.Command(fairsqg, genArgs(lower)...).Output()
		if err != nil {
			t.Fatalf("fairsqg from %s: %v", filepath.Base(lower), err)
		}
		got, err := exec.Command(fairsqg, genArgs(upper)...).Output()
		if err != nil {
			t.Fatalf("fairsqg from %s: %v", filepath.Base(upper), err)
		}
		if string(got) != string(want) {
			t.Errorf("%s run differs from %s run:\n--- upper\n%s--- lower\n%s",
				filepath.Base(upper), filepath.Base(lower), got, want)
		}
	}

	// Corrupt snapshots fail loudly on every loading path.
	bad := filepath.Join(dir, "bad.fsnap")
	if err := os.WriteFile(bad, []byte("FSQGSNAPgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	wantExitError(t, "fairsqg corrupt snapshot", fairsqg, "-graph", bad)
	wantExitError(t, "fairsqg unwritable -save-snapshot", fairsqg, "-dataset", "lki", "-nodes", "300",
		"-save-snapshot", filepath.Join(dir, "no", "such", "dir", "g.fsnap"))
}

// TestRemovedAblationFlags: the access-path, variable-order and scorer
// switches are library fields for tests and benchmarks now, and the match
// engine has no fan-out to set; neither command accepts these flags any
// more (rejected at flag parsing, not ignored).
func TestRemovedAblationFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	// Otherwise-valid invocations, so only the removed flag can fail them.
	base := map[string][]string{
		"fairsqg":  {"-nodes", "300"},
		"fairsqgd": {"-addr", "127.0.0.1:0"},
	}
	for name, valid := range base {
		bin := buildCLI(t, name)
		for _, flags := range [][]string{{"-no-attr-index"}, {"-order", "static"}, {"-no-inc-score"}, {"-match-workers", "2"}} {
			// The deadline turns "flag accepted, daemon now serving" into a
			// failure instead of a hang.
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			out, err := exec.CommandContext(ctx, bin, append(flags, valid...)...).CombinedOutput()
			cancel()
			var exitErr *exec.ExitError
			if !errors.As(err, &exitErr) || exitErr.ExitCode() <= 0 {
				t.Errorf("%s %v: err %v, want a non-zero exit\n%s", name, flags, err, out)
			} else if !strings.Contains(string(out), "flag provided but not defined") {
				t.Errorf("%s %v: rejected for another reason:\n%s", name, flags, out)
			}
		}
	}
}

// TestFairsqgdCLI checks the daemon's flag and preload error paths; the
// live-server path is covered by scripts/server_smoke.sh and the
// internal/server e2e tests.
func TestFairsqgdCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildCLI(t, "fairsqgd")
	wantExitError(t, "fairsqgd malformed -graph", bin, "-graph", "noequalsign")
	wantExitError(t, "fairsqgd missing graph file", bin, "-graph", "g="+filepath.Join(t.TempDir(), "nope.tsv"))
	badSnap := filepath.Join(t.TempDir(), "bad.fsnap")
	if err := os.WriteFile(badSnap, []byte("FSQGSNAPgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	wantExitError(t, "fairsqgd corrupt snapshot preload", bin, "-graph", "g="+badSnap)
	wantExitError(t, "fairsqgd stray args", bin, "stray")
	wantExitError(t, "fairsqgd bad -addr", bin, "-addr", "not-an-address")

	// Cluster role validation: the flag combinations must be rejected
	// before any listener comes up.
	wantExitError(t, "fairsqgd unknown -role", bin, "-role", "supervisor")
	wantExitError(t, "fairsqgd coordinator without workers", bin, "-role", "coordinator")
	wantExitError(t, "fairsqgd cluster-workers without coordinator role", bin, "-cluster-workers", "localhost:9001")
	wantExitError(t, "fairsqgd coordinator with blank worker", bin, "-role", "coordinator", "-cluster-workers", "localhost:9001,,localhost:9002")
	wantExitError(t, "fairsqgd coordinator with duplicate workers", bin, "-role", "coordinator", "-cluster-workers", "localhost:9001,localhost:9001")
	wantExitError(t, "fairsqgd worker with missing graph file", bin, "-role", "worker", "-graph", "g="+filepath.Join(t.TempDir(), "nope.tsv"))
	wantExitError(t, "fairsqgd worker corrupt snapshot preload", bin, "-role", "worker", "-graph", "g="+badSnap)
}
