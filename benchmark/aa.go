package main

import (
	"fmt"
	"os"
)

// selfCheck is the A/A test: the same code, seed and inputs n times over,
// each run in a process of its own exactly as the driver starts it. For
// every end-to-end metric on every workload it prints the spread of the n
// values, (max − min) / median, beside the metric's bound, and fails if a
// spread reaches its bound: a benchmark that cannot tell a commit from
// itself cannot tell it from its parent.
func selfCheck(cfg runConfig, n int) error {
	workloads := workloadNames
	if cfg.workload != "" {
		workloads = []string{cfg.workload}
	}
	cfg.trace, cfg.traceOut = false, ""
	breaches := 0
	fmt.Printf("%-12s %-20s %12s %9s %7s\n", "workload", "metric", "median", "spread", "bound")
	for _, w := range workloads {
		c := cfg
		c.workload = w
		values := make(map[string][]float64)
		for i := 0; i < n; i++ {
			res, err := runChild(c, nil)
			if err != nil {
				return err
			}
			if res.Failed > 0 {
				return fmt.Errorf("%s: %d of %d ops failed", w, res.Failed, res.Attempted)
			}
			for name, v := range res.Metrics {
				values[name] = append(values[name], v.Value)
			}
		}
		for _, d := range endToEndMetrics {
			spread := relSpread(values[d.name])
			verdict := ""
			switch {
			case spread >= d.bound:
				verdict = "  BREACH"
				breaches++
			case spread >= d.bound/2:
				verdict = "  over half the bound"
			}
			fmt.Printf("%-12s %-20s %12.4f %8.2f%% %6.0f%%%s\n", w, d.name, median(values[d.name]), 100*spread, 100*d.bound, verdict)
		}
	}
	if breaches > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %d metric spreads reached their bound\n", breaches)
		os.Exit(2)
	}
	return nil
}
