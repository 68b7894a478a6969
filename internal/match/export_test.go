package match

// SetStoreCeiling rebounds e's store: the ceiling is derived from the graph
// and has no knob, so an eviction test sets it here.
func (e *Engine) SetStoreCeiling(bytes int64) {
	e.store.mu.Lock()
	e.store.stats.Ceiling = bytes
	e.store.mu.Unlock()
}
