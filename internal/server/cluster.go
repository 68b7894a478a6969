package server

import (
	"context"
	"time"

	"fairsqg/internal/cluster"
)

// ctxJobID keys the job ID into a running job's context; the distributed
// path reads it back as the cluster request ID so a job's slab fan-out
// correlates across the coordinator's and workers' logs.
type ctxJobID struct{}

// jobIDFrom extracts the running job's ID, empty when absent (tests
// driving runFuncs directly).
func jobIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxJobID{}).(string)
	return id
}

// runDistributed executes a par job over the cluster coordinator instead
// of the local lattice walk: slabs fan out to the worker fleet and the
// merged ε-Pareto archive is rendered exactly like a local result. Slab
// completions surface on the progress stream as "slab" events.
func (m *Manager) runDistributed(ctx context.Context, spec *JobSpec, handle *Handle, hub *progressHub) (*JobResult, error) {
	res, err := m.cluster.RunJob(ctx, cluster.JobRequest{
		Graph:     spec.Graph,
		G:         handle.Graph(),
		Payload:   specPayload(spec),
		RequestID: jobIDFrom(ctx),
		OnSlab: func(done, total int, worker string) {
			hub.publish(JobEvent{Type: "slab", Verified: done, Matches: total})
		},
	})
	if err != nil {
		return nil, err
	}
	out := &JobResult{
		Algorithm: spec.Algorithm,
		Eps:       res.Eps,
		ElapsedMs: float64(res.Elapsed) / float64(time.Millisecond),
		Stats:     res.Stats,
		Queries:   make([]ResultQuery, 0, len(res.Entries)),
	}
	for _, e := range res.Entries {
		out.Queries = append(out.Queries, ResultQuery{
			Bindings:  append([]int(nil), e.Bindings...),
			Text:      e.Text,
			Diversity: e.Div,
			Coverage:  e.Cov,
			Answers:   e.Matches,
		})
	}
	return out, nil
}
