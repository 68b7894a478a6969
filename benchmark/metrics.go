package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
)

// metricDef names one reported metric. The two tables below are the
// benchmark's vocabulary: BENCHMARK.json lists exactly these names and
// units (a unit test keeps them in step), every untraced run prints every
// end-to-end metric, and every traced run prints every per-layer metric —
// 0 where a layer is not on the workload's path.
type metricDef struct {
	name, unit string
	// bound is the share by which an end-to-end metric may worsen before
	// a change counts as a regression (per-layer metrics have none).
	bound float64
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s", 0.25},
	{"front_ms.p50", "ms", 0.20},
	{"front_ms.p90", "ms", 0.25},
	{"fronts_per_s", "1/s", 0.20},
	{"alloc_mb_per_front", "MB", 0.02},
	{"peak_rss_mb", "MB", 0.25},
}

var perLayerMetrics = []metricDef{
	{"graph.parse_freeze_ms", "ms", 0},
	{"graph.decode_v2_ms", "ms", 0},
	{"graph.open_mapped_ms", "ms", 0},
	{"graph.wal_replay_ms", "ms", 0},
	{"graph.wal_append_ms.p50", "ms", 0},
	{"graph.apply_batch_ms.p50", "ms", 0},
	{"graph.wal_bytes_per_op", "bytes", 0},
	{"graph.mapped_mb", "MB", 0},
	{"graph.index_mb", "MB", 0},

	{"query.new_instance_us.p50", "us", 0},
	{"query.bind_domains_ms.p50", "ms", 0},
	{"query.instances_built", "count", 0},

	{"match.eval_ms.p50", "ms", 0},
	{"match.eval_ms.p90", "ms", 0},
	{"match.eval_share", "ratio", 0},
	{"match.evals", "count", 0},
	{"match.backtrack_nodes", "count", 0},
	{"match.candidates_checked", "count", 0},
	{"match.backtrack_per_match", "ratio", 0},
	{"match.sig_pruned", "count", 0},
	{"match.index_selections", "count", 0},
	{"match.scan_selections", "count", 0},
	{"match.cand_cache_hit_ratio", "ratio", 0},

	{"measure.score_ms.p50", "ms", 0},
	{"measure.score_ms.p90", "ms", 0},
	{"measure.score_share", "ratio", 0},
	{"measure.features_build_ms", "ms", 0},
	{"measure.pair_evals", "count", 0},
	{"measure.pair_cache_hit_ratio", "ratio", 0},
	{"measure.pair_cache_clears", "count", 0},
	{"measure.inc_score_ratio", "ratio", 0},

	{"groups.count_us.p50", "us", 0},
	{"groups.by_attribute_ms.p50", "ms", 0},

	{"pareto.update_us.p50", "us", 0},
	{"pareto.updates", "count", 0},
	{"pareto.accept_ratio", "ratio", 0},
	{"pareto.front_size.p50", "count", 0},

	{"core.spawned", "count", 0},
	{"core.verified", "count", 0},
	{"core.feasible", "count", 0},
	{"core.pruned", "count", 0},
	{"core.prune_ratio", "ratio", 0},
	{"core.sandwich_pairs", "count", 0},
	{"core.verify_us.p50", "us", 0},
	{"core.replay_ratio", "ratio", 0},
	{"core.par_speedup", "ratio", 0},
	{"core.slab_skew", "ratio", 0},
	{"core.retarget_ms.p50", "ms", 0},
	{"core.rescores", "count", 0},
	{"core.rescore_dropped", "count", 0},
	{"core.online_delay_ms.p50", "ms", 0},

	{"server.restore_ms", "ms", 0},
	{"server.submit_ms.p50", "ms", 0},
	{"server.queue_wait_ms.p50", "ms", 0},
	{"server.overhead_ms.p50", "ms", 0},
	{"server.overhead_ms.p90", "ms", 0},
	{"server.result_bytes.p50", "bytes", 0},
	{"server.jobs_shed", "count", 0},
	{"server.jobs_failed", "count", 0},

	{"cluster.par_job_ms.p50", "ms", 0},
	{"cluster.vs_local_ratio", "ratio", 0},
	{"cluster.slab_attempts", "count", 0},
	{"cluster.slabs_retried", "count", 0},

	{"bench.raw_front_ms.p50", "ms", 0},
	{"bench.raw_front_ms.p90", "ms", 0},
	{"bench.pass_spread", "ratio", 0},
	{"bench.trace_overhead_ratio", "ratio", 0},
	{"bench.gc_cycles", "count", 0},
	{"bench.gc_pause_ms", "ms", 0},
	{"bench.ops_per_pass", "count", 0},
	{"bench.gomaxprocs", "count", 0},
	{"bench.loadavg_1m", "ratio", 0},
}

// metricValues holds one run's numbers keyed by metric name.
type metricValues map[string]float64

// procStatusKB reads one "Key:   N kB" line of /proc/self/status (VmHWM,
// VmRSS); 0 when the file or key is missing (non-Linux hosts).
func procStatusKB(key string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, key+":") {
			continue
		}
		fields := strings.Fields(line[len(key)+1:])
		if len(fields) == 0 {
			return 0
		}
		kb, _ := strconv.ParseFloat(fields[0], 64)
		return kb
	}
	return 0
}

// loadAvg1m reads the host's one-minute load average; 0 when unavailable.
func loadAvg1m() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64)
	return v
}
