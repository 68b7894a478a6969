package cluster

import (
	"fmt"
	"sync"
)

// slabBucketsMs are the upper bounds of the coordinator's slab latency
// histogram, in milliseconds. Slabs are coarser than single HTTP requests,
// so the scale starts higher than the daemon's request histogram.
var slabBucketsMs = []float64{5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000}

// Histogram is a fixed-bucket latency histogram safe for concurrent use:
// the one /metrics histogram shape of both daemon roles (the server's
// per-algorithm job latencies, the coordinator's slab latencies).
type Histogram struct {
	boundsMs []float64 // bucket upper bounds; the implicit last bucket is +Inf
	mu       sync.Mutex
	count    int64
	sumMs    float64
	buckets  []int64 // one per bound; observations past the last only count
}

// NewHistogram returns an empty histogram over ascending bucket upper
// bounds in milliseconds.
func NewHistogram(boundsMs []float64) *Histogram {
	return &Histogram{boundsMs: boundsMs, buckets: make([]int64, len(boundsMs))}
}

// Observe records one latency.
func (h *Histogram) Observe(ms float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sumMs += ms
	for i, ub := range h.boundsMs {
		if ms <= ub {
			h.buckets[i]++
			return
		}
	}
}

// Snapshot renders cumulative "le" counts, the shape Prometheus-style
// scrapers expect.
func (h *Histogram) Snapshot() map[string]any {
	h.mu.Lock()
	defer h.mu.Unlock()
	le := make(map[string]int64, len(h.buckets)+1)
	cum := int64(0)
	for i, ub := range h.boundsMs {
		cum += h.buckets[i]
		le[fmt.Sprintf("%g", ub)] = cum
	}
	le["+Inf"] = h.count
	return map[string]any{"count": h.count, "sumMs": h.sumMs, "le": le}
}
