package match

import (
	"sort"
	"strconv"
	"strings"

	"fairsqg/internal/graph"
	"fairsqg/internal/query"
)

// DefaultCandCacheSize is the candidate-cache capacity used when a caller
// asks for a cache without choosing a size.
const DefaultCandCacheSize = 4096

// CacheStats reports candidate-cache effectiveness.
type CacheStats struct {
	// Hits counts lookups answered from the cache.
	Hits int64
	// Misses counts lookups that had to fall back to a full scan.
	Misses int64
	// Evictions counts entries dropped to stay within capacity.
	Evictions int64
	// Entries is the current number of cached candidate lists.
	Entries int
}

// CandidateCache memoizes the label+literal filtering phase of plan
// construction: the key canonicalizes a template node's (label, bound
// literals) pair, the value is the filtered candidate list over one frozen
// graph. Refinement siblings share most of their bound-literal sets, so a
// shared cache lets them reuse nodeSatisfies scans instead of re-filtering
// the label's whole node list. The cache is an LRU (a Store whose entries
// weigh 1 under a ceiling of capacity) and safe for concurrent use; cached
// slices are treated as immutable and callers must copy before mutating.
type CandidateCache struct{ lru Store }

// NewCandidateCache returns an empty cache holding at most capacity
// candidate lists; capacity <= 0 selects DefaultCandCacheSize.
func NewCandidateCache(capacity int) *CandidateCache {
	if capacity <= 0 {
		capacity = DefaultCandCacheSize
	}
	return &CandidateCache{lru: Store{stats: StoreStats{Ceiling: int64(capacity)}}}
}

// candKey canonicalizes a (node label, compiled literals) pair: literals
// are sorted by (attr, op, value) so textual permutations of the same
// predicate set share one entry. Value kinds are encoded to keep Str("1")
// distinct from Int(1). The interned AttrID is deliberately excluded — it
// is a per-graph artifact of the attribute name already in the key.
func candKey(label string, lits []query.CompiledLiteral) string {
	parts := make([]string, len(lits))
	for i, l := range lits {
		parts[i] = l.Attr + "\x01" + l.Op.String() + "\x01" +
			strconv.Itoa(int(l.Value.Kind())) + "\x01" + l.Value.String()
	}
	sort.Strings(parts)
	var b strings.Builder
	b.Grow(len(label) + 16*len(parts))
	b.WriteString(label)
	for _, p := range parts {
		b.WriteByte('\x00')
		b.WriteString(p)
	}
	return b.String()
}

// lookup returns the cached candidate list for key; the returned slice must
// not be mutated.
func (c *CandidateCache) lookup(key string) ([]graph.NodeID, bool) {
	if v, ok := c.lru.get(key); ok {
		return v.([]graph.NodeID), true
	}
	return nil, false
}

// store records a candidate list for key, evicting the least recently used
// entry when over capacity (a concurrent evaluation's incumbent is kept).
// The slice is retained; callers must not mutate it afterwards.
func (c *CandidateCache) store(key string, cands []graph.NodeID) { c.lru.put(key, cands, 1) }

// Stats returns a snapshot of the cache counters.
func (c *CandidateCache) Stats() CacheStats {
	s := c.lru.Stats()
	return CacheStats{Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions, Entries: s.Entries}
}
