package server

import (
	"time"

	"fairsqg/internal/cluster"
	"fairsqg/internal/core"
)

// JobSpec is the JSON body of a job submission: which graph, which
// template (in the DSL), which groups, which algorithm, and the knobs.
type JobSpec struct {
	// Graph names a registered graph.
	Graph string `json:"graph"`
	// Algorithm is one of core.AlgorithmNames: enum, rf, bi, par, kungs, cbm.
	Algorithm string `json:"algorithm"`
	// Template is the query template in the textual DSL. Range variables
	// without explicit `ladder` lines get their value ladders bound
	// against the graph, capped at MaxDomain values.
	Template string `json:"template"`
	// Groups declares the fairness groups and coverage constraints.
	Groups GroupsSpec `json:"groups"`
	// Eps is the ε-dominance tolerance (default 0.05).
	Eps float64 `json:"eps,omitempty"`
	// Lambda balances relevance against dissimilarity (omitted selects the
	// default 0.5; an explicit 0 requests the pure-relevance objective).
	Lambda *float64 `json:"lambda,omitempty"`
	// MaxDomain caps each bound value ladder (default 8).
	MaxDomain int `json:"maxDomain,omitempty"`
	// MaxPairs caps pairwise diversity evaluations (default 20000; a
	// negative value requests exact scoring with no cap). Only free-text
	// distance attributes take pairs; the others sum exactly by column.
	MaxPairs int `json:"maxPairs,omitempty"`
	// DistanceAttrs restricts the tuple distance to these attributes.
	DistanceAttrs []string `json:"distanceAttrs,omitempty"`
	// Workers is the lattice fan-out for the par algorithm (<= 0 selects
	// GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// TimeoutMs bounds the run; 0 selects the server default, and the
	// server maximum always applies.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
	// ProgressEvery samples every Nth verification into the progress
	// stream (default 32; < 0 disables progress events).
	ProgressEvery int `json:"progressEvery,omitempty"`
}

// GroupsSpec selects the node groups P and their constraints c_i.
type GroupsSpec = cluster.GroupsPayload

// ResultQuery is one suggested query in a job result, mirroring the
// workload format so results feed the same downstream drivers.
type ResultQuery struct {
	Bindings  []int   `json:"bindings"`
	Text      string  `json:"text"`
	Diversity float64 `json:"diversity"`
	Coverage  float64 `json:"coverage"`
	Answers   int     `json:"answers"`
}

// JobResult is the rendered outcome of a finished job.
type JobResult struct {
	Algorithm string        `json:"algorithm"`
	Eps       float64       `json:"eps"`
	ElapsedMs float64       `json:"elapsedMs"`
	Stats     core.Stats    `json:"stats"`
	Queries   []ResultQuery `json:"queries"`
}

// specPayload converts the HTTP job spec into the cluster package's
// algorithm-independent job payload — the same object a coordinator ships
// to its workers, which is what keeps local and distributed runs on one
// spec→config semantics.
func specPayload(spec *JobSpec) cluster.JobPayload {
	return cluster.JobPayload{
		Template:      spec.Template,
		Groups:        spec.Groups,
		Eps:           spec.Eps,
		Lambda:        spec.Lambda,
		MaxDomain:     spec.MaxDomain,
		MaxPairs:      spec.MaxPairs,
		DistanceAttrs: spec.DistanceAttrs,
	}
}

// buildConfig validates a spec against its leased graph and produces the
// run configuration. Errors here are the caller's fault and surface as
// HTTP 400s at submit time, before the job is queued. The spec→config
// semantics live in cluster.BuildConfigOn, shared with cluster workers; the
// server only adds algorithm validation.
func buildConfig(spec *JobSpec, h *Handle) (*core.Config, error) {
	if err := core.CheckAlgorithm(spec.Algorithm); err != nil {
		return nil, err
	}
	// The graph's shared engine: every job on this generation reuses one warm
	// candidate cache, one matcher pool, and the answers, group partitions
	// and scoring structures earlier jobs left in its store.
	return cluster.BuildConfigOn(specPayload(spec), h.Engine())
}

// runSpec executes a job's algorithm over its prepared configuration and
// renders the result. The context carries the job deadline; hook, when
// non-nil, receives every verification event.
func runSpec(spec *JobSpec, cfg *core.Config, hook func(core.VerifyEvent)) (*JobResult, error) {
	cfg.OnVerified = hook
	runner, err := core.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	res, err := runner.Run(spec.Algorithm, spec.Workers)
	if err != nil {
		return nil, err
	}
	out := &JobResult{
		Algorithm: spec.Algorithm,
		Eps:       res.Eps,
		ElapsedMs: float64(res.Elapsed) / float64(time.Millisecond),
		Stats:     res.Stats,
		Queries:   make([]ResultQuery, 0, len(res.Set)),
	}
	for _, v := range res.Set {
		out.Queries = append(out.Queries, ResultQuery{
			Bindings:  append([]int(nil), v.Q.I...),
			Text:      v.Q.String(),
			Diversity: v.Point.Div,
			Coverage:  v.Point.Cov,
			Answers:   len(v.Matches),
		})
	}
	return out, nil
}
