package server

import (
	"expvar"
	"sync"

	"fairsqg/internal/cluster"
)

// latencyBucketsMs are the upper bounds of the per-algorithm latency
// histogram, in milliseconds.
var latencyBucketsMs = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000}

// metrics aggregates the service counters surfaced at /metrics. The
// counters are expvar values held per server instance (published into the
// process-global expvar namespace by the daemon, not here, so tests can
// run many servers in one process).
type metrics struct {
	jobsSubmitted expvar.Int
	jobsShed      expvar.Int
	jobsDone      expvar.Int
	jobsFailed    expvar.Int
	jobsCancelled expvar.Int
	httpRequests  expvar.Int
	httpByCode    expvar.Map

	mu      sync.Mutex
	latency map[string]*cluster.Histogram // keyed by algorithm
}

func newMetrics() *metrics {
	m := &metrics{latency: make(map[string]*cluster.Histogram)}
	m.httpByCode.Init()
	return m
}

// observeLatency records one finished run's wall time for its algorithm.
func (m *metrics) observeLatency(algorithm string, ms float64) {
	m.mu.Lock()
	h, ok := m.latency[algorithm]
	if !ok {
		h = cluster.NewHistogram(latencyBucketsMs)
		m.latency[algorithm] = h
	}
	m.mu.Unlock()
	h.Observe(ms)
}

// latencySnapshot renders every algorithm's histogram.
func (m *metrics) latencySnapshot() map[string]any {
	m.mu.Lock()
	hs := make(map[string]*cluster.Histogram, len(m.latency))
	for k, h := range m.latency {
		hs[k] = h
	}
	m.mu.Unlock()
	out := make(map[string]any, len(hs))
	for k, h := range hs {
		out[k] = h.Snapshot()
	}
	return out
}
