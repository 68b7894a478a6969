package match

import (
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"fairsqg/internal/graph"
	"fairsqg/internal/query"
)

// CacheStats reports candidate-list lookups.
type CacheStats struct {
	// Hits counts candidate-list lookups answered from the store.
	Hits int64
	// Misses counts candidate-list lookups that had to fall back to a scan.
	Misses int64
	// Evictions counts the store's entries dropped to stay under its
	// ceiling; an engine's store holds answers and derived values too.
	Evictions int64
	// Entries is the number of entries the store holds now.
	Entries int
}

// CandidateCache memoizes the label+literal filtering phase of plan
// construction: the key canonicalizes a template node's (label, bound
// literals) pair, the value is the filtered candidate list over one frozen
// graph. Refinement siblings share most of their bound-literal sets, so a
// shared cache lets them reuse nodeSatisfies scans instead of re-filtering
// the label's whole node list. It is a view over a Store that counts its own
// lookups: an engine's matchers use the engine's store, where a list weighs
// its bytes beside the answers and derived values; NewCandidateCache makes a
// store of its own, where a list weighs 1. Safe for concurrent use; cached
// slices are immutable and callers must copy before mutating.
type CandidateCache struct {
	store *Store
	// weighBytes weighs a list in bytes (an engine's view), not as 1.
	weighBytes   bool
	hits, misses atomic.Int64
}

// NewCandidateCache returns an empty cache holding at most capacity
// candidate lists; capacity <= 0 selects 4096.
func NewCandidateCache(capacity int) *CandidateCache {
	if capacity <= 0 {
		capacity = 4096
	}
	return &CandidateCache{store: &Store{stats: StoreStats{Ceiling: int64(capacity)}}}
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
	if v, ok := c.store.get(key); ok {
		c.hits.Add(1)
		return v.([]graph.NodeID), true
	}
	c.misses.Add(1)
	return nil, false
}

// keep records a candidate list for key, evicting the least recently used
// entries when over the ceiling (a concurrent evaluation's incumbent is
// kept). The slice is retained; callers must not mutate it afterwards.
func (c *CandidateCache) keep(key string, cands []graph.NodeID) {
	weight := int64(1)
	if c.weighBytes {
		weight = 4*int64(cap(cands)) + int64(len(key)) + storeEntryBytes
	}
	c.store.put(key, cands, weight)
}

// Stats returns a snapshot of the cache counters.
func (c *CandidateCache) Stats() CacheStats {
	s := c.store.Stats()
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Evictions: s.Evictions, Entries: s.Entries}
}
