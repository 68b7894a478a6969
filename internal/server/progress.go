package server

import "sync"

// JobEvent is one NDJSON line of a job's progress stream.
type JobEvent struct {
	// Type is "progress" for verification samples and "state" for
	// lifecycle transitions (running/done/failed/cancelled); a "state"
	// event with a terminal State is the last line of the stream.
	Type string `json:"type"`
	// Seq numbers the events of one job from 1.
	Seq int `json:"seq"`
	// State accompanies "state" events.
	State string `json:"state,omitempty"`
	// Verified/Feasible/Matches/Div/Cov describe one sampled verification.
	Verified int     `json:"verified,omitempty"`
	Feasible bool    `json:"feasible,omitempty"`
	Matches  int     `json:"matches,omitempty"`
	Div      float64 `json:"div,omitempty"`
	Cov      float64 `json:"cov,omitempty"`
	// Error accompanies a failed terminal state.
	Error string `json:"error,omitempty"`
}

// progressHub buffers a job's events and fans them out to any number of
// stream subscribers. Publishers never block: a subscriber that falls
// behind its channel buffer has events dropped (the buffered replay is
// what guarantees a late subscriber still sees the history that fit the
// ring).
type progressHub struct {
	mu  sync.Mutex
	seq int
	// buf is a ring of the most recent events, grown by append (a finished
	// job is retained with its hub, and most publish a few dozen) until it
	// holds cap; start is the oldest event's index, 0 until the ring wraps.
	buf    []JobEvent
	cap    int
	start  int
	subs   map[chan JobEvent]struct{}
	closed bool
}

func newProgressHub(buffer int) *progressHub {
	if buffer <= 0 {
		buffer = 1024
	}
	return &progressHub{cap: buffer, subs: make(map[chan JobEvent]struct{})}
}

// publish assigns the event its sequence number, appends it to the ring
// and offers it to every live subscriber. Safe for concurrent use —
// ParQGen invokes the verification hook from several workers.
func (h *progressHub) publish(ev JobEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.seq++
	ev.Seq = h.seq
	if len(h.buf) == h.cap {
		h.buf[h.start] = ev
		h.start = (h.start + 1) % h.cap
	} else {
		h.buf = append(h.buf, ev)
	}
	for ch := range h.subs {
		select {
		case ch <- ev:
		default: // slow consumer: drop rather than stall the runner
		}
	}
}

// close ends the stream: subscriber channels are closed and later
// subscribe calls replay the buffer with a nil live channel.
func (h *progressHub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for ch := range h.subs {
		close(ch)
	}
	h.subs = make(map[chan JobEvent]struct{})
}

// subscribe returns the buffered history plus a live channel (nil when
// the stream already ended). cancel detaches the subscriber; it is safe
// to call after close.
func (h *progressHub) subscribe() (replay []JobEvent, live <-chan JobEvent, cancel func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	replay = append(append(make([]JobEvent, 0, len(h.buf)), h.buf[h.start:]...), h.buf[:h.start]...)
	if h.closed {
		return replay, nil, func() {}
	}
	ch := make(chan JobEvent, 256)
	h.subs[ch] = struct{}{}
	return replay, ch, func() {
		h.mu.Lock()
		if _, ok := h.subs[ch]; ok {
			delete(h.subs, ch)
			close(ch)
		}
		h.mu.Unlock()
	}
}
