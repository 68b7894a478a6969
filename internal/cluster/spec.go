// Package cluster distributes fairsqgd's slab-parallel query generation
// across processes: a coordinator plans a job's instance lattice into
// slabs (core.PlanSlabs), places each graph on a subset of worker daemons
// by rendezvous hashing, ships the graph's binary snapshot to the workers
// that need it (content-addressed by snapshot CRC), dispatches slabs with
// bounded in-flight per worker plus timeout/retry/failover, and merges the
// returned slab archives through pareto.Archive.Update — so the
// distributed result stays inside the ε-Pareto contract and matches a
// single-process ParQGen run, whatever order the slabs come back in.
package cluster

import (
	"fmt"
	"slices"

	"fairsqg/internal/core"
	"fairsqg/internal/graph"
	"fairsqg/internal/groups"
	"fairsqg/internal/match"
	"fairsqg/internal/query"
)

// DefaultMaxPairs mirrors the service-level default pairwise-evaluation
// cap applied when a job payload leaves MaxPairs zero.
const DefaultMaxPairs = 20000

// JobPayload is the algorithm-independent job description that crosses
// the coordinator→worker wire: everything needed to rebuild an identical
// core.Config against a local copy of the graph. Ladder binding is
// deterministic for a given graph, and the graph itself is
// content-addressed by snapshot CRC, so a worker rebuilding the config
// from this payload explores exactly the lattice the coordinator planned.
type JobPayload struct {
	// Template is the query template in the textual DSL; range variables
	// without explicit ladders are bound against the graph, capped at
	// MaxDomain values.
	Template string `json:"template"`
	// Groups declares the fairness groups and coverage constraints.
	Groups GroupsPayload `json:"groups"`
	// Eps is the ε-dominance tolerance (default 0.05).
	Eps float64 `json:"eps,omitempty"`
	// Lambda balances relevance against dissimilarity (nil selects the
	// default 0.5; an explicit 0 requests the pure-relevance objective).
	Lambda *float64 `json:"lambda,omitempty"`
	// MaxDomain caps each bound value ladder (default 8).
	MaxDomain int `json:"maxDomain,omitempty"`
	// MaxPairs caps pairwise diversity evaluations (default
	// DefaultMaxPairs; negative requests exact scoring). Only free-text
	// distance attributes take pairs; the others sum exactly by column.
	MaxPairs int `json:"maxPairs,omitempty"`
	// DistanceAttrs restricts the tuple distance to these attributes.
	DistanceAttrs []string `json:"distanceAttrs,omitempty"`
}

// GroupsPayload selects the node groups P and their constraints c_i.
type GroupsPayload struct {
	// Label and Attr induce the groups: nodes with Label partitioned by
	// the values of Attr.
	Label string `json:"label"`
	Attr  string `json:"attr"`
	// Values restricts the partition to these attribute values (empty =
	// every value).
	Values []string `json:"values,omitempty"`
	// Cover is the per-group equal-opportunity constraint; Total, when
	// positive, overrides it by splitting a total budget evenly.
	Cover int `json:"cover,omitempty"`
	Total int `json:"total,omitempty"`
}

// BuildConfig materializes a payload into a validated core.Config against
// g. It is the single source of truth for spec→config semantics: the
// fairsqgd job API delegates here for local runs, and workers call it to
// rebuild a coordinator's job, which is what keeps the two sides'
// lattices identical. The returned config has no engine bound and was built
// from g alone; BuildConfigOn is the same thing for a caller with an engine.
func BuildConfig(p JobPayload, g *graph.Graph) (*core.Config, error) {
	return buildConfig(p, g, nil)
}

// BuildConfigOn is BuildConfig against e's graph for a run on e itself: the
// config has e bound, and takes the group partition it names from e's store
// (match.Engine.Derived), as the run will take answers and scoring structures.
func BuildConfigOn(p JobPayload, e *match.Engine) (*core.Config, error) {
	return buildConfig(p, e.Graph(), e)
}

func buildConfig(p JobPayload, g *graph.Graph, e *match.Engine) (*core.Config, error) {
	if p.Template == "" {
		return nil, fmt.Errorf("cluster: job needs a template")
	}
	tpl, err := query.ParseString(p.Template)
	if err != nil {
		return nil, err
	}
	maxDomain := p.MaxDomain
	if maxDomain <= 0 {
		maxDomain = 8
	}
	if err := tpl.BindMissingDomains(g, query.DomainOptions{MaxValues: maxDomain}); err != nil {
		return nil, err
	}
	gs := p.Groups
	if gs.Label == "" || gs.Attr == "" {
		return nil, fmt.Errorf("cluster: job needs groups.label and groups.attr")
	}
	// Cut once per engine — per generation — and shared read-only by every
	// job that names it; the constraints below are set on this job's copy.
	cut, _ := e.Derived("groups", append([]string{gs.Label, gs.Attr}, gs.Values...), func() (any, int64) {
		var set groups.Set
		if len(gs.Values) > 0 {
			set = groups.ByValues(g, gs.Label, gs.Attr, gs.Values...)
		} else {
			set = groups.ByAttribute(g, gs.Label, gs.Attr)
		}
		return set, set.Bytes()
	})
	set := slices.Clone(cut.(groups.Set))
	if len(set) == 0 {
		return nil, fmt.Errorf("cluster: no groups for %s.%s", gs.Label, gs.Attr)
	}
	if gs.Total > 0 {
		set = groups.SplitEvenly(set, gs.Total)
	} else {
		set = groups.EqualOpportunity(set, gs.Cover)
	}
	eps := p.Eps
	if eps == 0 {
		eps = 0.05
	}
	maxPairs := p.MaxPairs
	if maxPairs == 0 {
		maxPairs = DefaultMaxPairs
	}
	cfg := &core.Config{
		G:             g,
		Template:      tpl,
		Groups:        set,
		Eps:           eps,
		MaxPairs:      maxPairs,
		DistanceAttrs: p.DistanceAttrs,
		Engine:        e,
	}
	if p.Lambda != nil {
		cfg.Lambda = *p.Lambda
		cfg.LambdaSet = true
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}
