package server

import (
	"context"
	"errors"
	"testing"
	"time"
)

func contextWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

// newTestManager builds a manager with no registry dependency; tests
// inject run functions directly through enqueue.
func newTestManager(t *testing.T, opts ManagerOptions) (*Manager, *metrics) {
	t.Helper()
	met := newMetrics()
	m := NewManager(NewRegistry(), met, opts)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = m.Shutdown(ctx)
	})
	return m, met
}

// waitState polls until the job reaches state or the deadline passes.
func waitState(t *testing.T, m *Manager, id string, want JobState) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := m.Status(id)
		if !ok {
			t.Fatalf("job %s disappeared while waiting for %s", id, want)
		}
		if st.State == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, _ := m.Status(id)
	t.Fatalf("job %s stuck in %s, want %s", id, st.State, want)
}

func sleepRun(d time.Duration) runFunc {
	return func(ctx context.Context, hub *progressHub) (*JobResult, error) {
		select {
		case <-time.After(d):
			return &JobResult{Algorithm: "test"}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// blockRun blocks until released (or cancelled).
func blockRun(release <-chan struct{}) runFunc {
	return func(ctx context.Context, hub *progressHub) (*JobResult, error) {
		select {
		case <-release:
			return &JobResult{Algorithm: "test"}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func TestQueueFullSheds(t *testing.T) {
	m, met := newTestManager(t, ManagerOptions{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	defer close(release)

	// First job occupies the lone worker...
	running, err := m.enqueue(nil, nil, blockRun(release), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, running.ID, JobRunning)
	// ...second fills the queue...
	if _, err := m.enqueue(nil, nil, blockRun(release), time.Minute); err != nil {
		t.Fatal(err)
	}
	// ...third is shed.
	if _, err := m.enqueue(nil, nil, blockRun(release), time.Minute); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if got := met.jobsShed.Value(); got != 1 {
		t.Fatalf("jobsShed = %d, want 1", got)
	}
}

func TestCancelRunningJob(t *testing.T) {
	m, met := newTestManager(t, ManagerOptions{Workers: 1})
	job, err := m.enqueue(nil, nil, sleepRun(time.Minute), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, job.ID, JobRunning)
	if err := m.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, job.ID, JobCancelled)
	if got := met.jobsCancelled.Value(); got != 1 {
		t.Fatalf("jobsCancelled = %d, want 1", got)
	}
	// A finished job is retained without its run closure, which holds the
	// bound configuration.
	m.mu.Lock()
	dropped := job.run == nil
	m.mu.Unlock()
	if !dropped {
		t.Error("a terminal job still holds its run closure")
	}
	// A terminal job can't be cancelled again.
	if err := m.Cancel(job.ID); err == nil {
		t.Fatal("second cancel should fail")
	}
}

func TestCancelQueuedJob(t *testing.T) {
	m, _ := newTestManager(t, ManagerOptions{Workers: 1, QueueDepth: 2})
	release := make(chan struct{})
	defer close(release)
	running, err := m.enqueue(nil, nil, blockRun(release), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, running.ID, JobRunning)
	queued, err := m.enqueue(nil, nil, blockRun(release), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Still queued: the worker is occupied. Cancel resolves it instantly.
	if err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	st, _ := m.Status(queued.ID)
	if st.State != JobCancelled {
		t.Fatalf("queued job state = %s, want cancelled", st.State)
	}
	// The progress stream must have ended with the terminal event.
	replay, live, _, ok := m.Subscribe(queued.ID)
	if !ok || live != nil {
		t.Fatalf("subscribe after cancel: ok=%v live=%v, want closed stream", ok, live)
	}
	last := replay[len(replay)-1]
	if last.Type != "state" || last.State != string(JobCancelled) {
		t.Fatalf("last event = %+v, want terminal cancelled state", last)
	}
}

func TestDeadlineFailsJob(t *testing.T) {
	m, met := newTestManager(t, ManagerOptions{Workers: 1})
	job, err := m.enqueue(nil, nil, sleepRun(time.Minute), 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, job.ID, JobFailed)
	st, _ := m.Status(job.ID)
	if st.Error == "" {
		t.Fatal("failed job should carry an error message")
	}
	if got := met.jobsFailed.Value(); got != 1 {
		t.Fatalf("jobsFailed = %d, want 1", got)
	}
}

func TestRetentionSweep(t *testing.T) {
	m, _ := newTestManager(t, ManagerOptions{Workers: 1, Retention: time.Minute, GCInterval: time.Hour})
	job, err := m.enqueue(nil, nil, sleepRun(0), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, job.ID, JobDone)

	// Young finished jobs survive the sweep...
	if n := m.sweep(time.Now()); n != 0 {
		t.Fatalf("sweep removed %d young jobs", n)
	}
	// ...expired ones don't.
	if n := m.sweep(time.Now().Add(2 * time.Minute)); n != 1 {
		t.Fatalf("sweep removed %d jobs, want 1", n)
	}
	if _, ok := m.Status(job.ID); ok {
		t.Fatal("swept job still visible")
	}
	// A running job is never swept, no matter how old.
	release := make(chan struct{})
	defer close(release)
	running, err := m.enqueue(nil, nil, blockRun(release), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, running.ID, JobRunning)
	if n := m.sweep(time.Now().Add(24 * time.Hour)); n != 0 {
		t.Fatalf("sweep removed %d running jobs", n)
	}
}

func TestShutdownDrainsRunningJob(t *testing.T) {
	m, _ := newTestManager(t, ManagerOptions{Workers: 1})
	job, err := m.enqueue(nil, nil, sleepRun(50*time.Millisecond), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, job.ID, JobRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The running job finished normally with its result intact.
	res, state, ok := m.Result(job.ID)
	if !ok || state != JobDone || res == nil {
		t.Fatalf("after drain: ok=%v state=%s res=%v, want done with result", ok, state, res)
	}
	// Intake is closed.
	if _, err := m.enqueue(nil, nil, sleepRun(0), time.Minute); !errors.Is(err, ErrDraining) {
		t.Fatalf("want ErrDraining, got %v", err)
	}
}

func TestShutdownDeadlineCancelsJobs(t *testing.T) {
	m, _ := newTestManager(t, ManagerOptions{Workers: 1})
	job, err := m.enqueue(nil, nil, sleepRun(time.Hour), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, job.ID, JobRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded from cut-short drain, got %v", err)
	}
	st, _ := m.Status(job.ID)
	if st.State != JobCancelled {
		t.Fatalf("job state after forced drain = %s, want cancelled", st.State)
	}
}

func TestListNewestFirst(t *testing.T) {
	m, _ := newTestManager(t, ManagerOptions{Workers: 1, QueueDepth: 8})
	for i := 0; i < 3; i++ {
		if _, err := m.enqueue(nil, nil, sleepRun(0), time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	list := m.List()
	if len(list) != 3 {
		t.Fatalf("len(list) = %d, want 3", len(list))
	}
	for i := 1; i < len(list); i++ {
		if list[i-1].ID <= list[i].ID {
			t.Fatalf("list not newest-first: %s before %s", list[i-1].ID, list[i].ID)
		}
	}
}
