package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fairsqg/internal/core"
	"fairsqg/internal/graph"
	"fairsqg/internal/query"
)

// live-mutate uses the graph layer for writes. One OnlineQGen per pass
// maintains a size-K front over an instance stream while the benchmark's
// stream appends a mutation batch to the delta log (fsync included) and
// applies it to the live graph before every second arrival. An op runs
// from "batch submitted" to "the next checkpoint shows the re-scored
// front". Every pass restarts from the same snapshot and an empty log.

const (
	liveK      = 10
	liveWindow = 40
	// retargetEvery thins the generations the traced pass retains for the
	// Retarget replay: holding all of them keeps every copy-on-write
	// layer alive and slows the traced pass itself.
	retargetEvery = 4
)

func liveWorkload() *workload {
	return &workload{
		open: func(dir string, in *inputs) (session, error) {
			script, err := readScript(dir)
			if err != nil {
				return nil, err
			}
			if len(script)*2 != len(in.Stream) {
				return nil, fmt.Errorf("script has %d batches for a stream of %d arrivals", len(script), len(in.Stream))
			}
			return &liveSession{in: in, dir: dir, script: script}, nil
		},
		setup: liveSetup,
	}
}

// liveSetup is the restart path: decode the base snapshot, replay the
// delta log over it, and produce the first front.
func liveSetup(dir string, in *inputs) (time.Duration, error) {
	t0 := time.Now()
	g, err := graph.ReadSnapshotFile(filepath.Join(dir, snapFile))
	if err != nil {
		return 0, err
	}
	live := graph.NewLive(g)
	defer live.Close()
	rep, err := graph.ReplayWAL(filepath.Join(dir, restartLog), false)
	if err != nil {
		return 0, err
	}
	for _, b := range rep.Batches {
		if _, err := live.Apply(b); err != nil {
			return 0, err
		}
	}
	cur := live.Acquire()
	defer cur.Close()
	cfg, err := buildConfig(cur, &in.SetupOp)
	if err != nil {
		return 0, err
	}
	r, err := core.NewRunner(cfg)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	first, err := query.NewInstance(cfg.Template, in.Stream[0])
	if err != nil {
		return 0, err
	}
	if _, err := r.OnlineQGen(&core.SliceStream{Items: []*query.Instance{first}}, core.OnlineOptions{K: liveK, Window: liveWindow}); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

type liveSession struct {
	in     *inputs
	dir    string
	script [][]graph.Mutation

	// State the last pass left behind for verify and replay.
	finalGen *graph.Graph   // the live graph's last generation (retained)
	gens     []*graph.Graph // traced pass: every retargetEvery-th generation
	online   *core.OnlineResult
	walBytes int64
}

func (s *liveSession) opIDs() []string {
	ids := make([]string, len(s.script))
	for i := range ids {
		ids[i] = fmt.Sprintf("batch%03d", i)
	}
	return ids
}

// mutatingStream is the benchmark's InstanceStream: it hands OnlineQGen
// the prepared arrivals and lands a batch before every second one.
type mutatingStream struct {
	s     *liveSession
	insts []*query.Instance
	live  *graph.Live
	wal   *graph.WALWriter
	pr    *passResult
	tr    *tracer
	lt    *layerTrace
	next  int
	// The op in flight: its index, start time and spans; -1 when none.
	op      int
	started time.Time
	opSpan  int
	tail    int
}

func (m *mutatingStream) Next() *query.Instance {
	if m.next >= len(m.insts) {
		return nil
	}
	if m.next%2 == 0 {
		m.submit(m.next / 2)
	}
	q := m.insts[m.next]
	m.next++
	return q
}

// submit makes batch k durable and visible; the op's clock runs from here
// until checkpoint sees the re-scored front.
func (m *mutatingStream) submit(k int) {
	batch := m.s.script[k]
	m.started = time.Now()
	m.opSpan = m.tr.begin(0, k, 0, "op")
	id := m.tr.begin(m.opSpan, k, 0, "wal.append")
	err := m.wal.Append(batch)
	m.tr.end(id)
	if m.lt != nil {
		m.lt.sample("graph.wal_append", time.Since(m.started))
	}
	if err == nil {
		id = m.tr.begin(m.opSpan, k, 0, "live.apply")
		t0 := time.Now()
		_, err = m.live.Apply(batch)
		m.tr.end(id)
		if m.lt != nil {
			m.lt.sample("graph.apply_batch", time.Since(t0))
			if k%retargetEvery == 0 {
				m.s.gens = append(m.s.gens, m.live.Acquire())
			}
		}
	}
	if err != nil {
		m.pr.errs[k] = err
		m.tr.end(m.opSpan)
		return
	}
	m.op = k
	m.tail = m.tr.begin(m.opSpan, k, 0, "rescore")
}

// checkpoint is OnlineQGen's OnCheckpoint: the first one after a batch
// closes that batch's op.
func (m *mutatingStream) checkpoint(cp core.OnlineCheckpoint) {
	if m.op < 0 {
		return
	}
	m.pr.lat[m.op] = time.Since(m.started)
	m.tr.end(m.tail)
	m.tr.end(m.opSpan)
	m.pr.digest[m.op] = fmt.Sprintf("%s e%.6g n%d", boxes(cp.Points, cp.Eps), cp.Eps, cp.Processed)
	m.op = -1
}

func (s *liveSession) runPass(tr *tracer, lt *layerTrace) *passResult {
	pr := newPassResult(len(s.script))
	fail := func(err error) *passResult {
		for i := range pr.errs {
			if pr.errs[i] == nil {
				pr.errs[i] = err
			}
			pr.lat[i], pr.digest[i] = 0, ""
		}
		pr.wall = time.Nanosecond
		return pr
	}
	s.dropState()

	// Restart: fresh decode of the base snapshot, empty log.
	g, err := graph.ReadSnapshotFile(filepath.Join(s.dir, snapFile))
	if err != nil {
		return fail(err)
	}
	live := graph.NewLive(g)
	defer live.Close()
	logPath := filepath.Join(s.dir, passLog)
	if err := os.Remove(logPath); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fail(err)
	}
	wal, err := graph.OpenWAL(logPath)
	if err != nil {
		return fail(err)
	}
	defer wal.Close()
	cfg, err := buildConfig(g, &s.in.Ops[0])
	if err != nil {
		return fail(err)
	}
	r, err := core.NewRunner(cfg)
	if err != nil {
		return fail(err)
	}
	defer r.Close()
	st := &mutatingStream{s: s, live: live, wal: wal, pr: pr, tr: tr, lt: lt, op: -1, insts: make([]*query.Instance, len(s.in.Stream))}
	for i, inst := range s.in.Stream {
		if st.insts[i], err = query.NewInstance(cfg.Template, inst); err != nil {
			return fail(err)
		}
	}

	start := time.Now()
	res, err := r.OnlineQGen(st, core.OnlineOptions{
		K: liveK, Window: liveWindow, CheckpointEvery: 1,
		Mutations:    &core.LiveMutations{L: live},
		OnCheckpoint: st.checkpoint,
	})
	pr.wall = time.Since(start)
	if err != nil {
		return fail(err)
	}
	// The run's totals ride on the last op's digest so that a pass whose
	// counters drift fails the all-passes-agree check.
	last := len(pr.digest) - 1
	if pr.digest[last] != "" {
		pr.digest[last] += fmt.Sprintf(" v%d f%d r%d d%d", res.Stats.Verified, res.Stats.Feasible, res.Rescores, res.RescoreDropped)
	}
	s.finalGen, s.online, s.walBytes = live.Acquire(), res, wal.Size()
	return pr
}

// dropState releases what the previous pass retained.
func (s *liveSession) dropState() {
	if s.finalGen != nil {
		s.finalGen.Close()
		s.finalGen = nil
	}
	for _, g := range s.gens {
		g.Close()
	}
	s.gens = nil
}

// verify replays the last pass's delta log over a fresh decode of the
// base snapshot and requires the result to be equivalent to the live
// graph's final generation: what a restart would serve is what was served.
func (s *liveSession) verify(*passResult, *layerTrace) (map[int]error, []error) {
	if s.finalGen == nil {
		return nil, []error{errors.New("no completed pass to check the delta log against")}
	}
	g, err := graph.ReadSnapshotFile(filepath.Join(s.dir, snapFile))
	if err != nil {
		return nil, []error{err}
	}
	live := graph.NewLive(g)
	defer live.Close()
	rep, err := graph.ReplayWAL(filepath.Join(s.dir, passLog), false)
	if err != nil {
		return nil, []error{err}
	}
	if rep.Truncated || len(rep.Batches) != len(s.script) {
		return nil, []error{fmt.Errorf("delta log holds %d intact batches (truncated=%v), want %d", len(rep.Batches), rep.Truncated, len(s.script))}
	}
	for i, b := range rep.Batches {
		if _, err := live.Apply(b); err != nil {
			return nil, []error{fmt.Errorf("replaying batch %d: %w", i, err)}
		}
	}
	if err := graph.Equivalent(live.Graph(), s.finalGen); err != nil {
		return nil, []error{fmt.Errorf("replayed log differs from the live graph: %w", err)}
	}
	return nil, nil
}

func (s *liveSession) replay(tr *tracer, lt *layerTrace) {
	if s.online == nil {
		return
	}
	for _, d := range s.online.Delays {
		lt.sample("core.online_delay", d)
	}
	lt.addStats(s.online.Stats, true)
	lt.set("core.rescores", float64(s.online.Rescores))
	lt.set("core.rescore_dropped", float64(s.online.RescoreDropped))
	lt.set("graph.wal_bytes_per_op", float64(s.walBytes)/float64(len(s.script)))

	// The restart path's two graph-layer pieces, timed on their own.
	t0 := time.Now()
	g, err := graph.ReadSnapshotFile(filepath.Join(s.dir, snapFile))
	if err != nil {
		return
	}
	lt.set("graph.decode_v2_ms", ms(time.Since(t0)))
	lt.set("graph.index_mb", float64(g.Memory().IndexBytes)/(1<<20))
	live := graph.NewLive(g)
	t0 = time.Now()
	if rep, err := graph.ReplayWAL(filepath.Join(s.dir, restartLog), false); err == nil {
		for _, b := range rep.Batches {
			if _, err := live.Apply(b); err != nil {
				break
			}
		}
		lt.set("graph.wal_replay_ms", ms(time.Since(t0)))
	}
	live.Close()

	// Retarget alone, on the generations the traced pass went through:
	// the rebuild of matcher, counter and scoring state, without the
	// re-verification that follows it in the real run.
	base, err := graph.ReadSnapshotFile(filepath.Join(s.dir, snapFile))
	if err != nil {
		return
	}
	cfg, err := buildConfig(base, &s.in.Ops[0])
	if err != nil {
		return
	}
	r, err := core.NewRunner(cfg)
	if err != nil {
		return
	}
	defer r.Close()
	span := tr.begin(0, -1, 0, "replay.retarget")
	for _, gen := range s.gens {
		t0 := time.Now()
		r.Retarget(gen)
		lt.sample("core.retarget", time.Since(t0))
	}
	tr.end(span)
}

func (s *liveSession) close() error {
	s.dropState()
	return nil
}
