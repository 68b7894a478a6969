package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced pass. Spans of one op share
// its index; parent is the id of the span that caused this one (0 for an
// op's root span). A zero-length span with instant set is a mark.
type span struct {
	id, parent int
	op         int
	lane       int // Chrome "tid": the client or goroutine the span ran on
	name       string
	start, end time.Duration // since the tracer's epoch
	instant    bool
}

// tracer records spans in memory; nothing is written until the run ends.
// A nil *tracer is valid and records nothing, so the measured passes
// share the traced pass's code path with tracing off.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent, op, lane int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, op: op, lane: lane, name: name, start: now, end: -1})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// mark records an instant event under parent.
func (t *tracer) mark(parent, op, lane int, name string) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, op: op, lane: lane, name: name, start: now, end: now, instant: true})
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far (closed ones only).
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end >= s.start {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its direct children cover (overlapping children are
// counted once). A name's total self time over the trace is what that
// layer cost on its own.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.parent != 0 && !s.instant {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if s.instant {
			continue
		}
		out[s.name] += s.end - s.start - covered(s, children[s.id])
	}
	return out
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total time.Duration
	curStart, curEnd := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.start, parent.start), min(k.end, parent.end)
		if e <= s {
			continue
		}
		if curEnd < 0 || s > curEnd {
			if curEnd >= 0 {
				total += curEnd - curStart
			}
			curStart, curEnd = s, e
		} else if e > curEnd {
			curEnd = e
		}
	}
	if curEnd >= 0 {
		total += curEnd - curStart
	}
	return total
}

// chromeEvent is one entry of the Chrome trace-event format that
// ui.perfetto.dev and chrome://tracing open.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]int `json:"args,omitempty"`
}

// writeChromeTrace writes the spans as trace-event JSON.
func writeChromeTrace(path, workload string, spans []span) error {
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		ev := chromeEvent{
			Name: s.name, Cat: workload, Ph: "X",
			Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: s.lane,
			Args: map[string]int{"op": s.op, "id": s.id, "parent": s.parent},
		}
		if s.instant {
			ev.Ph, ev.Dur, ev.S = "i", 0, "t"
		}
		events = append(events, ev)
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
