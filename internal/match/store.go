package match

import (
	"container/list"
	"strconv"
	"sync"

	"fairsqg/internal/graph"
	"fairsqg/internal/query"
)

// storeBytesPerNode derives an engine store's ceiling from its generation: 32
// node ids per graph node, a fraction of what the graph's own columns,
// adjacency and indexes take. (The serve-jobs benchmark's whole working set —
// 152 answers, one group partition, one feature table — is 57 bytes a node.)
const storeBytesPerNode = 128

// storeEntryBytes is what an entry, its list element and its map slot cost.
const storeEntryBytes = 96

// StoreStats reports a Store: Entries and Bytes are gauges, Ceiling the bound
// Bytes stays under; Hits and Misses count lookups, Evictions the entries
// dropped to stay under Ceiling.
type StoreStats struct {
	Entries                 int
	Bytes, Ceiling          int64
	Hits, Misses, Evictions int64
}

// Store is a weight-bounded LRU map, safe for concurrent use. As an engine's
// store it is what the runs that engine serves share: answers of concrete
// queries (Engine.Answer), candidate lists (CandidateCache) and values that
// are a function of the generation and a small spec (Engine.Derived),
// weighed in bytes under one ceiling. All
// of it is immutable and true of the engine's graph only, so nothing is ever
// invalidated: it dies with its engine. A zero ceiling stores nothing.
type Store struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	order   list.List // front = most recently used
	stats   StoreStats
}

type storeEntry struct {
	key    string
	val    any
	weight int64
}

// get returns the value stored under key.
func (s *Store) get(key string) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		s.stats.Misses++
		return nil, false
	}
	s.stats.Hits++
	s.order.MoveToFront(el)
	return el.Value.(*storeEntry).val, true
}

// put stores val under key and returns what the store holds there afterwards:
// an incumbent wins (two runs computed one value), the least recently used
// entries make room, and a value heavier than the ceiling is not stored.
func (s *Store) put(key string, val any, weight int64) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		return el.Value.(*storeEntry).val
	}
	if weight > s.stats.Ceiling {
		return val
	}
	if s.entries == nil {
		s.entries = make(map[string]*list.Element)
	}
	s.entries[key] = s.order.PushFront(&storeEntry{key, val, weight})
	for s.stats.Bytes += weight; s.stats.Bytes > s.stats.Ceiling; s.stats.Evictions++ {
		oldest := s.order.Remove(s.order.Back()).(*storeEntry)
		delete(s.entries, oldest.key)
		s.stats.Bytes -= oldest.weight
	}
	s.stats.Entries = len(s.entries)
	return val
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// appendStr appends s length-prefixed: no string imitates two, or none.
func appendStr(b []byte, s string) []byte {
	b = append(strconv.AppendInt(append(b, ','), int64(len(s)), 10), ':')
	return append(b, s...)
}

// AnswerKey identifies the concrete query q denotes at its output node by
// everything buildPlan reads — the active nodes' labels and bound literals
// (value kinds included), the active edges, the pinned node — and nothing
// else: instances of different templates, or of one template under different
// ladders, share an answer exactly when they are the same pattern. Numbers
// end at a non-digit and strings are length-prefixed: no value imitates one.
func AnswerKey(q *query.Instance) string {
	b := make([]byte, 0, 160)
	b = strconv.AppendInt(b, int64(q.T.Output), 10)
	for _, ni := range q.ActiveNodes() {
		b = strconv.AppendInt(append(b, 'n'), int64(ni), 10)
		b = appendStr(b, q.T.Nodes[ni].Label)
		for _, l := range q.BoundLiterals(ni) {
			b = append(b, 'l', byte(l.Op), byte(l.Value.Kind()))
			b = appendStr(appendStr(b, l.Attr), l.Value.String())
		}
	}
	for _, ei := range q.ActiveEdges() {
		e := &q.T.Edges[ei]
		b = strconv.AppendInt(append(b, 'e'), int64(e.From), 10)
		b = strconv.AppendInt(append(b, '>'), int64(e.To), 10)
		b = appendStr(b, e.Label)
	}
	return string(b)
}

// Answer returns the answer stored under an AnswerKey: q(u_o, G) sorted, as
// ParEvalOutputSeeded returned it, shared by every run that asks and never to
// be written to.
func (e *Engine) Answer(key string) ([]graph.NodeID, bool) {
	v, ok := e.store.get(key)
	matches, _ := v.([]graph.NodeID)
	return matches, ok
}

// Derived returns the value build computes — with its size in bytes — from
// the engine's graph and spec, the strings that with kind (a word: an answer
// key starts with a digit) determine it: the stored one (hit reports true) or
// a fresh one, then stored for the engine's lifetime. Each string of spec is
// keyed length-prefixed: no two specs share a value. The value is shared and
// read-only. A nil engine shares nothing: it builds.
func (e *Engine) Derived(kind string, spec []string, build func() (val any, bytes int64)) (val any, hit bool) {
	if e == nil {
		val, _ = build()
		return val, false
	}
	b := []byte(kind)
	for _, s := range spec {
		b = appendStr(b, s)
	}
	key := string(b)
	if v, ok := e.store.get(key); ok {
		return v, true
	}
	val, bytes := build()
	return e.store.put(key, val, bytes+int64(len(key))+storeEntryBytes), false
}
