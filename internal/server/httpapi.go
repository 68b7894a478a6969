package server

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log"
	"mime"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"fairsqg/internal/graph"
)

// apiError is the JSON error body every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// routes assembles the full handler tree on a Go 1.22 pattern mux.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)

	mux.HandleFunc("GET /v1/graphs", s.handleListGraphs)
	mux.HandleFunc("GET /v1/graphs/{name}", s.handleGetGraph)
	mux.HandleFunc("PUT /v1/graphs/{name}", s.handleUploadGraph)
	mux.HandleFunc("POST /v1/graphs/{name}", s.handleUploadGraph)
	mux.HandleFunc("DELETE /v1/graphs/{name}", s.handleDeleteGraph)
	mux.HandleFunc("POST /v1/graphs/{name}/mutate", s.handleMutateGraph)

	mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	mux.HandleFunc("POST /v1/jobs/batch", s.handleBatchJobs)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)

	// pprof needs explicit wiring on a non-default mux.
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /debug/vars", expvar.Handler())

	return s.withRequestLog(mux)
}

// statusRecorder captures the response code for the request log.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards streaming flushes (the events endpoint needs it).
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

var reqCounter atomic.Uint64

// withRequestLog wraps the tree with request IDs, logging, counters and
// panic recovery. An inbound X-Request-Id (e.g. from an upstream proxy or
// a cluster coordinator) is honored and echoed, so one logical request
// correlates across hops; otherwise an ID is assigned.
func (s *Server) withRequestLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" || len(id) > 128 {
			id = fmt.Sprintf("r%08x", reqCounter.Add(1))
		}
		w.Header().Set("X-Request-Id", id)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		defer func() {
			if p := recover(); p != nil {
				s.logf("req=%s PANIC %s %s: %v", id, r.Method, r.URL.Path, p)
				if rec.code == http.StatusOK {
					writeError(rec, http.StatusInternalServerError, "internal error (request %s)", id)
				}
				return
			}
			s.met.httpRequests.Add(1)
			s.met.httpByCode.Add(fmt.Sprintf("%d", rec.code), 1)
			s.logf("req=%s %s %s -> %d (%s)", id, r.Method, r.URL.Path, rec.code, time.Since(start).Round(time.Microsecond))
		}()
		next.ServeHTTP(rec, r)
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports ready while the server is not draining and, in
// coordinator mode, has a live worker — the signal a load balancer should
// gate on. An empty registry is ready: graphs arrive by upload.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if s.opts.Cluster != nil && s.opts.Cluster.LiveWorkers() == 0 {
		writeError(w, http.StatusServiceUnavailable, "coordinator has no live workers")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.MetricsSnapshot())
}

func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"graphs": s.reg.List()})
}

func (s *Server) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	info, ok := s.reg.Info(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "graph %q not registered", r.PathValue("name"))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleUploadGraph ingests a TSV, JSON or binary-snapshot graph body.
// The format comes from ?format=, else the Content-Type, defaulting to
// TSV. Bodies beyond MaxUploadBytes are refused with 413.
func (s *Server) handleUploadGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	format := r.URL.Query().Get("format")
	if format == "" {
		if ct, _, err := mime.ParseMediaType(r.Header.Get("Content-Type")); err == nil {
			switch ct {
			case "application/json":
				format = "json"
			case "text/tab-separated-values":
				format = "tsv"
			}
		}
	}
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes)
	if err := s.reg.Read(name, format, body); err != nil {
		writeError(w, statusOf(err, http.StatusBadRequest), "%v", err)
		return
	}
	info, _ := s.reg.Info(name)
	writeJSON(w, http.StatusCreated, info)
}

// handleMutateGraph applies one mutation batch to a live graph. The body
// is the JSON mutation array shared with the delta-log frames (see
// graph.DecodeMutations): [{"op":"addNode","label":"Person","attrs":
// {"age":"30"}}, {"op":"removeEdge","from":1,"to":2,"label":"knows"}].
// The batch is all-or-nothing: any invalid op rejects the whole batch
// with 422 and the graph is unchanged. On success the batch is durable
// (fsync'd to the graph's delta log when snapshots are enabled) and
// subsequent jobs evaluate against the new generation; a batch the log
// cannot take is refused with 503 and changes nothing either.
func (s *Server) handleMutateGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes))
	if err != nil {
		writeError(w, statusOf(err, http.StatusBadRequest), "reading body: %v", err)
		return
	}
	ops, err := graph.DecodeMutations(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, err := s.reg.Mutate(name, ops)
	if err != nil {
		// Untyped means validation: the batch named nodes/edges/kinds the
		// graph does not have, or was internally inconsistent.
		writeError(w, statusOf(err, http.StatusUnprocessableEntity), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.reg.Remove(name); err != nil {
		writeError(w, statusOf(err, http.StatusInternalServerError), "%v", err)
		return
	}
	if s.opts.Cluster != nil {
		// Drop the coordinator's snapshot cache so a later same-name
		// registration re-encodes and re-places.
		s.opts.Cluster.ForgetGraph(name)
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "removed"})
}

// handleSubmitJob validates and enqueues a generation job, answering 202
// with its ID, or 429 + Retry-After under load.
func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	job, err := s.jobs.Submit(&spec)
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, statusOf(err, http.StatusBadRequest), "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	st, _ := s.jobs.Status(job.ID)
	writeJSON(w, http.StatusAccepted, st)
}

// statusOf maps an error of the registry or the job manager to its HTTP
// status by type, never by text; an untyped error — the request itself
// did not parse or validate — gets the endpoint's fallback.
func statusOf(err error, fallback int) int {
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrUnknownGraph):
		return http.StatusNotFound
	case errors.Is(err, ErrGraphExists):
		return http.StatusConflict
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining), errors.Is(err, errNotDurable):
		return http.StatusServiceUnavailable
	}
	return fallback
}

// BatchItem is the per-spec outcome of a batch submission.
type BatchItem struct {
	// Accepted reports whether this spec was enqueued; ID and Location
	// identify the job when it was.
	Accepted bool   `json:"accepted"`
	ID       string `json:"id,omitempty"`
	Location string `json:"location,omitempty"`
	// Status is the HTTP code this spec would have received from a single
	// submit (202, 400, 404, 429, 503); Error explains non-2xx ones.
	Status int    `json:"status"`
	Error  string `json:"error,omitempty"`
}

// handleBatchJobs accepts an array of job specs and submits each through
// the same validation, shedding and draining semantics as a single
// submit: items are processed in order, and a queue-full shed rejects
// that item (with per-item status 429 and a top-level Retry-After hint)
// without rolling back earlier accepts. The response is 200 whenever the
// batch itself was well-formed, regardless of item outcomes.
func (s *Server) handleBatchJobs(w http.ResponseWriter, r *http.Request) {
	var specs []JobSpec
	dec := json.NewDecoder(io.LimitReader(r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&specs); err != nil {
		writeError(w, http.StatusBadRequest, "bad batch body (want a JSON array of job specs): %v", err)
		return
	}
	if len(specs) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	const maxBatch = 256
	if len(specs) > maxBatch {
		writeError(w, http.StatusBadRequest, "batch of %d specs exceeds the limit of %d", len(specs), maxBatch)
		return
	}
	items := make([]BatchItem, len(specs))
	accepted, shed := 0, false
	for i := range specs {
		job, err := s.jobs.Submit(&specs[i])
		if err != nil {
			items[i] = BatchItem{Status: statusOf(err, http.StatusBadRequest), Error: err.Error()}
			shed = shed || errors.Is(err, ErrQueueFull)
			continue
		}
		items[i] = BatchItem{Accepted: true, ID: job.ID, Location: "/v1/jobs/" + job.ID, Status: http.StatusAccepted}
		accepted++
	}
	if shed {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"items":    items,
		"accepted": accepted,
		"rejected": len(items) - accepted,
	})
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.List()})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	st, ok := s.jobs.Status(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.jobs.Cancel(id); err != nil {
		if _, ok := s.jobs.Get(id); !ok {
			writeError(w, http.StatusNotFound, "%v", err)
		} else {
			writeError(w, http.StatusConflict, "%v", err)
		}
		return
	}
	st, _ := s.jobs.Status(id)
	writeJSON(w, http.StatusOK, st)
}

// handleJobResult serves a finished job's result; an unfinished job gets
// 409 so pollers can tell "not yet" from "gone".
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	res, state, ok := s.jobs.Result(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	if !state.terminal() {
		writeError(w, http.StatusConflict, "job %q is %s; result not ready", id, state)
		return
	}
	if res == nil {
		st, _ := s.jobs.Status(id)
		writeJSON(w, http.StatusOK, map[string]any{"state": state, "error": st.Error})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleJobEvents streams a job's progress as NDJSON: the buffered
// history first, then live events until the job reaches a terminal state
// or the client goes away.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	replay, live, cancel, ok := s.jobs.Subscribe(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(ev JobEvent) bool {
		if err := enc.Encode(ev); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	lastSeq := 0
	for _, ev := range replay {
		if !emit(ev) {
			return
		}
		lastSeq = ev.Seq
	}
	if live == nil {
		return // stream already ended; replay was the whole story
	}
	for {
		select {
		case ev, open := <-live:
			if !open {
				return
			}
			if ev.Seq <= lastSeq {
				continue // duplicate of the replayed prefix
			}
			if !emit(ev) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// printfLogger is the minimal interface the server logs through;
// *log.Logger satisfies it.
type printfLogger interface {
	Printf(format string, args ...any)
}

// logSink is the nil-safe logger the server, its registry and its
// snapshot store embed.
type logSink struct{ logger printfLogger }

func (l logSink) logf(format string, args ...any) {
	if l.logger != nil {
		l.logger.Printf(format, args...)
	}
}

var _ printfLogger = (*log.Logger)(nil)
