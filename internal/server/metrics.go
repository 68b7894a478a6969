package server

import (
	"expvar"
	"reflect"
	"sync"
	"sync/atomic"

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
	// What done jobs inherited, summed from their core.Stats.
	answersShared  expvar.Int
	ancestorsFound expvar.Int

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
	defer m.mu.Unlock()
	out := make(map[string]any, len(m.latency))
	for k, h := range m.latency {
		out[k] = h.Snapshot()
	}
	return out
}

// renderCounters renders a counter struct as a /metrics section: every
// atomic.Int64 field of *counters, keyed by its field name (the fields are
// unexported, hence the load through the field's address).
func renderCounters(counters any) map[string]any {
	v := reflect.ValueOf(counters).Elem()
	out := make(map[string]any, v.NumField())
	for i := 0; i < v.NumField(); i++ {
		if c, ok := reflect.NewAt(v.Field(i).Type(), v.Field(i).Addr().UnsafePointer()).Interface().(*atomic.Int64); ok {
			out[v.Type().Field(i).Name] = c.Load()
		}
	}
	return out
}
