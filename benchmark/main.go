// Command benchmark is this repository's benchmark: four workloads of
// fixed, seeded work, each measured end to end (six metrics) and, in a
// separate traced run, attributed to the layers of the system. See
// README.md beside this file for why each workload exists and how the
// numbers are estimated; BENCHMARK.json at the repository root lists the
// metrics, their units and the bounds a change may not cross.
//
//	go run ./benchmark                         every workload, end to end
//	go run ./benchmark -workload gen-score     one workload
//	go run ./benchmark -workload gen-score -trace 1 -trace-out t.json
//	go run ./benchmark -aa 3                   A/A self-check against the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// scratchRoot is where input files live while a run measures. It sits in
// the working directory because the benchmark reads and writes nowhere
// else; .gitignore names it.
const scratchRoot = ".bench_build"

func main() {
	var cfg runConfig
	var trace, aa int
	var prepareDir string
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (default: all, one after another)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the request order, mutation targets and stream order derive from")
	flag.Float64Var(&cfg.seconds, "seconds", 16, "measuring budget the fixed work (five passes) is sized for; a run stops early only past twice the budget")
	flag.IntVar(&trace, "trace", 0, "1: run the traced pass and the layer replay and report the per-layer metrics instead")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1, write the spans as Chrome trace-event JSON to this file")
	flag.StringVar(&cfg.scale, "scale", "default", "input scale: smoke, default or paper")
	flag.BoolVar(&cfg.verbose, "v", false, "print every op's best latency and digest")
	flag.IntVar(&aa, "aa", 0, "A/A self-check: run everything this many times and compare each metric's spread with its bound")
	flag.StringVar(&prepareDir, "prepare", "", "internal: generate the workload's input files into this directory and exit")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments: %v", flag.Args()))
	}
	cfg.trace = trace != 0

	// Two processors at most: the reference box has two, and a run must
	// mean the same thing on a larger host.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	switch {
	case prepareDir != "":
		if err := prepare(prepareDir, cfg.workload, cfg.seed, cfg.scale); err != nil {
			fatal(err)
		}
	case aa > 0:
		if err := selfCheck(cfg, aa); err != nil {
			fatal(err)
		}
	case cfg.workload == "":
		// One command prints every metric: each workload in a process of
		// its own, so peak RSS is that workload's.
		for _, w := range workloadNames {
			c := cfg
			c.workload = w
			if _, err := runChild(c, os.Stdout); err != nil {
				fatal(err)
			}
		}
	default:
		if err := runOne(cfg); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// resultLine is the last line a single-workload run prints: the contract
// with the driver.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne prepares inputs in a scratch directory (in a child process, so
// that this process's peak RSS is the measured path's), measures, cleans
// up and prints the report.
func runOne(cfg runConfig) error {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratchRoot, cfg.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := prepareInChild(cfg, dir); err != nil {
		return err
	}
	rep, err := runWorkload(cfg, dir)
	if err != nil {
		return err
	}
	fmt.Printf("# %s seed=%d scale=%s digest=%s\n", cfg.workload, cfg.seed, cfg.scale, rep.digest)
	for _, n := range rep.notes {
		fmt.Println("#", n)
	}
	line := resultLine{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, d := range rep.defs {
		fmt.Printf("%-12s %-30s %14.4f %s\n", cfg.workload, d.name, rep.metrics[d.name], d.unit)
		line.Metrics[d.name] = metricValue{Value: rep.metrics[d.name], Unit: d.unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// prepareInChild re-executes this binary with -prepare.
func prepareInChild(cfg runConfig, dir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, "-prepare", dir, "-workload", cfg.workload,
		"-seed", fmt.Sprint(cfg.seed), "-scale", cfg.scale)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("preparing inputs: %w", err)
	}
	return nil
}

// runChild runs one workload in a child process, copies its report to w
// and returns its result line.
func runChild(cfg runConfig, w *os.File) (*resultLine, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if cfg.trace {
		traceArg = "1"
	}
	args := []string{"-workload", cfg.workload, "-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds), "-trace", traceArg, "-scale", cfg.scale}
	if cfg.traceOut != "" {
		ext := filepath.Ext(cfg.traceOut)
		args = append(args, "-trace-out", strings.TrimSuffix(cfg.traceOut, ext)+"-"+cfg.workload+ext)
	}
	if cfg.verbose {
		args = append(args, "-v")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if w != nil {
		w.Write(out)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	res := new(resultLine)
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", cfg.workload, err)
	}
	if !res.Correct {
		return res, errors.New(cfg.workload + ": run reported incorrect results")
	}
	return res, nil
}
