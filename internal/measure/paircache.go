package measure

import (
	"sync"

	"fairsqg/internal/graph"
)

// DefaultPairCacheSize is the pair-distance cache capacity (total entries
// across all scopes) used when a caller asks for a cache without choosing
// a size. At 16 bytes per entry this bounds the cache near 16 MiB.
const DefaultPairCacheSize = 1 << 20

// PairCacheStats reports pair-distance cache effectiveness.
type PairCacheStats struct {
	// Evals counts underlying distance-function evaluations (cache misses
	// compute and store; with the cache disabled every lookup evaluates).
	Evals int64 `json:"evals"`
	// Hits counts lookups answered from the cache.
	Hits int64 `json:"hits"`
	// Misses counts lookups that evaluated the distance function.
	Misses int64 `json:"misses"`
	// Clears counts whole-cache drops taken to stay within capacity.
	Clears int64 `json:"clears"`
	// Entries is the current number of memoized pairs.
	Entries int `json:"entries"`
}

// PairCache memoizes pairwise distances d(v, w) under packed uint64 keys.
// It exists for caller-supplied distance functions, whose cost is opaque
// and which Wrap pins to one answer per pair; the default tuple distance
// is cheaper to evaluate (DistanceFeatures) than to look up here. Entries
// are partitioned into scopes, one per distance function, because the
// same node pair has different distances under different functions.
//
// The cache is bounded by total entry count; on overflow every scope is
// dropped at once (clear-on-full). Distances are deterministic per scope,
// so rebuilding is only a matter of re-evaluation, and the flat clear
// keeps lookups a single map probe with no LRU bookkeeping on the hot
// path. Safe for concurrent use.
type PairCache struct {
	mu       sync.Mutex
	capacity int
	scopes   map[string]*PairScope
	entries  int
	evals    int64
	hits     int64
	misses   int64
	clears   int64
}

// PairScope is a view of a PairCache restricted to one distance
// configuration; obtain one from PairCache.Scope.
type PairScope struct {
	cache *PairCache
	key   string
	m     map[uint64]float64
}

// NewPairCache returns an empty cache holding at most capacity distances
// across all scopes; capacity <= 0 selects DefaultPairCacheSize.
func NewPairCache(capacity int) *PairCache {
	if capacity <= 0 {
		capacity = DefaultPairCacheSize
	}
	return &PairCache{capacity: capacity, scopes: make(map[string]*PairScope)}
}

// Scope returns the cache's view for one distance function, named by
// fingerprint, creating it on first use. Callers with equal fingerprints
// share entries.
func (c *PairCache) Scope(fingerprint string) *PairScope {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.scopes[fingerprint]
	if !ok {
		s = &PairScope{cache: c, key: fingerprint, m: make(map[uint64]float64)}
		c.scopes[fingerprint] = s
	}
	return s
}

// Stats returns a snapshot of the cache counters.
func (c *PairCache) Stats() PairCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PairCacheStats{
		Evals:   c.evals,
		Hits:    c.hits,
		Misses:  c.misses,
		Clears:  c.clears,
		Entries: c.entries,
	}
}

// Reset drops every scope's entries and zeroes the counters.
func (c *PairCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.scopes {
		s.m = make(map[uint64]float64)
	}
	c.entries = 0
	c.evals, c.hits, c.misses, c.clears = 0, 0, 0, 0
}

// pairKey packs an unordered node pair into one uint64; callers pass the
// canonical v < w orientation so (v,w) and (w,v) share an entry.
func pairKey(v, w graph.NodeID) uint64 {
	return uint64(uint32(v))<<32 | uint64(uint32(w))
}

// Wrap returns a DistanceFunc that consults the scope before evaluating
// fn, canonicalizing argument order (fn must be symmetric, as the tuple
// distance is). Within one cache lifetime every pair therefore resolves to
// a single stored value, which also pins impure or racy custom functions
// to a consistent answer.
func (s *PairScope) Wrap(fn DistanceFunc) DistanceFunc {
	c := s.cache
	return func(v, w graph.NodeID) float64 {
		if w < v {
			v, w = w, v
		}
		key := pairKey(v, w)
		c.mu.Lock()
		if d, ok := s.m[key]; ok {
			c.hits++
			c.mu.Unlock()
			return d
		}
		c.misses++
		c.evals++
		c.mu.Unlock()
		d := fn(v, w)
		c.mu.Lock()
		if _, ok := s.m[key]; !ok {
			if c.entries >= c.capacity {
				for _, sc := range c.scopes {
					sc.m = make(map[uint64]float64)
				}
				c.entries = 0
				c.clears++
			}
			s.m[key] = d
			c.entries++
		}
		c.mu.Unlock()
		return d
	}
}
