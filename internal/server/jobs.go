package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"fairsqg/internal/cluster"
	"fairsqg/internal/core"
)

// JobState is a job's lifecycle phase.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// terminal reports whether the state is final.
func (s JobState) terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull sheds load when the job queue is at capacity (429).
	ErrQueueFull = errors.New("server: job queue full")
	// ErrDraining rejects submissions during graceful shutdown (503).
	ErrDraining = errors.New("server: shutting down")
	// ErrUnknownGraph rejects whatever names an unregistered graph (404).
	ErrUnknownGraph = errors.New("server: unknown graph")
	// ErrGraphExists rejects registering a name already in use (409).
	ErrGraphExists = errors.New("server: graph already registered")
)

// runFunc executes one job under its deadline context, publishing
// progress into the hub; tests inject their own.
type runFunc func(ctx context.Context, hub *progressHub) (*JobResult, error)

// Job is one asynchronous generation run.
type Job struct {
	// Immutable after creation.
	ID        string
	spec      *JobSpec
	handle    *Handle
	hub       *progressHub
	timeout   time.Duration
	submitted time.Time

	// run is set at creation, read once by the worker that starts the job
	// and dropped when the job reaches a terminal state.
	run runFunc

	// Guarded by the manager's mutex.
	state           JobState
	started         time.Time
	finished        time.Time
	errMsg          string
	result          *JobResult
	cancel          context.CancelFunc
	cancelRequested bool
}

// JobStatus is a job's externally visible summary.
type JobStatus struct {
	ID        string     `json:"id"`
	State     JobState   `json:"state"`
	Graph     string     `json:"graph,omitempty"`
	Algorithm string     `json:"algorithm,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	Error     string     `json:"error,omitempty"`
	// Queries is the result-set size, present once done.
	Queries int `json:"queries,omitempty"`
}

// ManagerOptions tunes the job manager.
type ManagerOptions struct {
	// Workers is the number of concurrent job runners (default 2).
	Workers int
	// QueueDepth bounds the jobs waiting to start; submissions beyond it
	// are shed with ErrQueueFull (default 16).
	QueueDepth int
	// Retention keeps finished jobs visible before GC (default 15m).
	Retention time.Duration
	// DefaultTimeout bounds jobs that don't pick one (default 5m);
	// MaxTimeout caps what a job may ask for (default 30m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// GCInterval paces the retention sweep (default 30s).
	GCInterval time.Duration
	// EventBuffer sizes each job's progress ring (default 1024).
	EventBuffer int
}

func (o *ManagerOptions) withDefaults() ManagerOptions {
	out := *o
	setDefault(&out.Workers, 2)
	setDefault(&out.QueueDepth, 16)
	setDefault(&out.Retention, 15*time.Minute)
	setDefault(&out.DefaultTimeout, 5*time.Minute)
	setDefault(&out.MaxTimeout, 30*time.Minute)
	setDefault(&out.GCInterval, 30*time.Second)
	setDefault(&out.EventBuffer, 1024)
	return out
}

// setDefault replaces an unset (zero or negative) option by its default.
func setDefault[T int | int64 | time.Duration](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}

// Manager owns the job lifecycle: a bounded intake queue, a fixed worker
// pool running jobs under per-job deadlines, retention/GC of finished
// jobs, and graceful draining.
type Manager struct {
	opts ManagerOptions
	reg  *Registry
	met  *metrics
	// cluster, when set, runs par jobs distributed over the worker fleet
	// instead of the local lattice walk (see Options.Cluster).
	cluster *cluster.Coordinator

	mu       sync.Mutex
	jobs     map[string]*Job
	seq      int
	draining bool

	queue  chan *Job
	wg     sync.WaitGroup
	stopGC chan struct{}
	gcDone chan struct{}
}

// NewManager starts the worker pool and the GC sweeper.
func NewManager(reg *Registry, met *metrics, opts ManagerOptions) *Manager {
	o := opts.withDefaults()
	m := &Manager{
		opts:   o,
		reg:    reg,
		met:    met,
		jobs:   make(map[string]*Job),
		queue:  make(chan *Job, o.QueueDepth),
		stopGC: make(chan struct{}),
		gcDone: make(chan struct{}),
	}
	for i := 0; i < o.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	go m.gcLoop()
	return m
}

// Submit validates a spec, leases its graph and enqueues the job. The
// expensive work happens later on a worker; validation errors surface
// here, synchronously.
func (m *Manager) Submit(spec *JobSpec) (*Job, error) {
	m.mu.Lock()
	draining := m.draining
	m.mu.Unlock()
	if draining {
		// Rechecked under the lock in enqueue; the early exit just avoids
		// validating work that can't be accepted.
		return nil, ErrDraining
	}
	handle, err := m.reg.Acquire(spec.Graph)
	if err != nil {
		return nil, err
	}
	cfg, err := buildConfig(spec, handle)
	if err != nil {
		handle.Release()
		return nil, err
	}
	every := spec.ProgressEvery
	if every == 0 {
		every = 32
	}
	distributed := m.cluster != nil && spec.Algorithm == "par"
	if distributed && handle.Graph().HasTombstones() {
		// Workers receive the generation as a snapshot, which cannot hold
		// tombstones; the local ParQGen computes the same archive.
		m.reg.logf("par job on %s v%d runs locally: the generation has removed nodes", spec.Graph, handle.Graph().Version())
		distributed = false
	}
	var run runFunc
	if distributed {
		// Coordinator mode: par jobs fan out over the worker fleet. The
		// config built above already validated the spec; workers rebuild it
		// from the payload against their content-addressed graph copies.
		run = func(ctx context.Context, hub *progressHub) (*JobResult, error) {
			return m.runDistributed(ctx, spec, handle, hub)
		}
	} else {
		run = func(ctx context.Context, hub *progressHub) (*JobResult, error) {
			cfg.Ctx = ctx
			var hook func(core.VerifyEvent)
			if every > 0 {
				hook = func(ev core.VerifyEvent) {
					if ev.Seq != 1 && ev.Seq%every != 0 {
						return
					}
					hub.publish(JobEvent{
						Type: "progress", Verified: ev.Seq, Feasible: ev.Feasible,
						Matches: ev.Matches, Div: ev.Point.Div, Cov: ev.Point.Cov,
					})
				}
			}
			return runSpec(spec, cfg, hook)
		}
	}
	timeout := m.opts.DefaultTimeout
	if spec.TimeoutMs > 0 {
		timeout = time.Duration(spec.TimeoutMs) * time.Millisecond
	}
	if timeout > m.opts.MaxTimeout {
		timeout = m.opts.MaxTimeout
	}
	job, err := m.enqueue(spec, handle, run, timeout)
	if err != nil {
		handle.Release()
		return nil, err
	}
	return job, nil
}

// enqueue registers the job and offers it to the queue without blocking.
func (m *Manager) enqueue(spec *JobSpec, handle *Handle, run runFunc, timeout time.Duration) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, ErrDraining
	}
	m.seq++
	job := &Job{
		ID:        fmt.Sprintf("j%06d", m.seq),
		spec:      spec,
		handle:    handle,
		hub:       newProgressHub(m.opts.EventBuffer),
		run:       run,
		timeout:   timeout,
		submitted: time.Now(),
		state:     JobQueued,
	}
	select {
	case m.queue <- job:
	default:
		m.met.jobsShed.Add(1)
		return nil, ErrQueueFull
	}
	m.jobs[job.ID] = job
	m.met.jobsSubmitted.Add(1)
	return job, nil
}

// worker drains the queue until it closes.
func (m *Manager) worker() {
	defer m.wg.Done()
	for job := range m.queue {
		m.runJob(job)
	}
}

// runJob executes one job under its deadline and records the outcome.
func (m *Manager) runJob(job *Job) {
	m.mu.Lock()
	if job.state.terminal() {
		// Cancelled while still queued; nothing to run.
		m.mu.Unlock()
		return
	}
	if job.cancelRequested {
		m.finishLocked(job, JobCancelled, nil, "cancelled before start")
		m.mu.Unlock()
		return
	}
	// The ID rides the context so run closures built before the ID existed
	// (Submit runs before enqueue assigns it) can still correlate logs.
	ctx, cancel := context.WithTimeout(context.WithValue(context.Background(), ctxJobID{}, job.ID), job.timeout)
	job.cancel = cancel
	job.state = JobRunning
	job.started = time.Now()
	m.mu.Unlock()
	job.hub.publish(JobEvent{Type: "state", State: string(JobRunning)})

	result, err := job.run(ctx, job.hub)
	cancel()

	m.mu.Lock()
	switch {
	case err == nil:
		job.result = result
		m.finishLocked(job, JobDone, result, "")
	case job.cancelRequested || errors.Is(err, context.Canceled):
		m.finishLocked(job, JobCancelled, nil, "cancelled")
	case errors.Is(err, context.DeadlineExceeded):
		m.finishLocked(job, JobFailed, nil, fmt.Sprintf("deadline exceeded after %v", job.timeout))
	default:
		m.finishLocked(job, JobFailed, nil, err.Error())
	}
	m.mu.Unlock()
}

// finishLocked transitions a job to a terminal state: counters, the
// graph lease, and the progress stream are all settled here. Caller
// holds m.mu.
func (m *Manager) finishLocked(job *Job, state JobState, result *JobResult, errMsg string) {
	job.state = state
	job.errMsg = errMsg
	job.finished = time.Now()
	job.cancel = nil
	// The closure holds the bound configuration — the group sets are maps
	// over the label's population — and a finished job is retained for
	// Retention: without this the faster jobs finish, the more of those a
	// daemon carries.
	job.run = nil
	if job.handle != nil {
		job.handle.Release()
	}
	switch state {
	case JobDone:
		m.met.jobsDone.Add(1)
		if result != nil {
			m.met.answersShared.Add(int64(result.Stats.AnswersShared))
			m.met.ancestorsFound.Add(int64(result.Stats.AncestorsFound))
		}
		if job.spec != nil && !job.started.IsZero() {
			m.met.observeLatency(job.spec.Algorithm, float64(job.finished.Sub(job.started))/float64(time.Millisecond))
		}
	case JobFailed:
		m.met.jobsFailed.Add(1)
	case JobCancelled:
		m.met.jobsCancelled.Add(1)
	}
	ev := JobEvent{Type: "state", State: string(state), Error: errMsg}
	if result != nil {
		ev.Matches = len(result.Queries)
	}
	job.hub.publish(ev)
	job.hub.close()
}

// Cancel requests cancellation: a queued job finishes immediately, a
// running one has its context cancelled and finishes when the runner
// notices. Cancelling a finished or unknown job is an error.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, ok := m.jobs[id]
	if !ok {
		return fmt.Errorf("server: no job %q", id)
	}
	if job.state.terminal() {
		return fmt.Errorf("server: job %q already %s", id, job.state)
	}
	job.cancelRequested = true
	if job.state == JobQueued {
		m.finishLocked(job, JobCancelled, nil, "cancelled while queued")
		return nil
	}
	if job.cancel != nil {
		job.cancel()
	}
	return nil
}

// Get returns a job by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, ok := m.jobs[id]
	return job, ok
}

// Status snapshots a job's summary.
func (m *Manager) Status(id string) (JobStatus, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, ok := m.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return m.statusLocked(job), true
}

func (m *Manager) statusLocked(job *Job) JobStatus {
	st := JobStatus{
		ID:        job.ID,
		State:     job.state,
		Submitted: job.submitted,
		Error:     job.errMsg,
	}
	if job.spec != nil {
		st.Graph = job.spec.Graph
		st.Algorithm = job.spec.Algorithm
	}
	if !job.started.IsZero() {
		t := job.started
		st.Started = &t
	}
	if !job.finished.IsZero() {
		t := job.finished
		st.Finished = &t
	}
	if job.result != nil {
		st.Queries = len(job.result.Queries)
	}
	return st
}

// Result returns a finished job's rendered result.
func (m *Manager) Result(id string) (*JobResult, JobState, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, ok := m.jobs[id]
	if !ok {
		return nil, "", false
	}
	return job.result, job.state, true
}

// Subscribe attaches to a job's progress stream.
func (m *Manager) Subscribe(id string) (replay []JobEvent, live <-chan JobEvent, cancel func(), ok bool) {
	m.mu.Lock()
	job, found := m.jobs[id]
	m.mu.Unlock()
	if !found {
		return nil, nil, nil, false
	}
	replay, live, cancel = job.hub.subscribe()
	return replay, live, cancel, true
}

// List snapshots every retained job, newest first.
func (m *Manager) List() []JobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobStatus, 0, len(m.jobs))
	for _, job := range m.jobs {
		out = append(out, m.statusLocked(job))
	}
	// Newest first: IDs are fixed-width and monotonic, so descending
	// lexicographic order is reverse submission order.
	sort.Slice(out, func(i, j int) bool { return out[i].ID > out[j].ID })
	return out
}

// counts tallies retained jobs by state plus the live queue depth.
func (m *Manager) counts() (byState map[string]int, queueDepth int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byState = map[string]int{}
	for _, job := range m.jobs {
		byState[string(job.state)]++
	}
	return byState, len(m.queue)
}

// gcLoop sweeps expired finished jobs on a ticker until Shutdown.
func (m *Manager) gcLoop() {
	defer close(m.gcDone)
	t := time.NewTicker(m.opts.GCInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			m.sweep(time.Now())
		case <-m.stopGC:
			return
		}
	}
}

// sweep drops finished jobs past retention; it returns how many went.
func (m *Manager) sweep(now time.Time) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for id, job := range m.jobs {
		if job.state.terminal() && now.Sub(job.finished) >= m.opts.Retention {
			delete(m.jobs, id)
			n++
		}
	}
	return n
}

// Shutdown stops intake and drains: queued and running jobs complete
// normally if they can. When ctx expires first, every remaining job's
// context is cancelled and Shutdown returns ctx.Err() once the workers
// settle.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil
	}
	m.draining = true
	close(m.queue)
	m.mu.Unlock()
	close(m.stopGC)

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		m.mu.Lock()
		for _, job := range m.jobs {
			if !job.state.terminal() {
				job.cancelRequested = true
				if job.cancel != nil {
					job.cancel()
				}
			}
		}
		m.mu.Unlock()
		<-done
	}
	<-m.gcDone
	return err
}
