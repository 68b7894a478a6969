package match

import (
	"fairsqg/internal/graph"
	"fairsqg/internal/query"
)

// SetStoreCeiling rebounds e's store: the ceiling is derived from the graph
// and has no knob, so an eviction test sets it here.
func (e *Engine) SetStoreCeiling(bytes int64) {
	e.store.mu.Lock()
	e.store.stats.Ceiling = bytes
	e.store.mu.Unlock()
}

// The equivalence generator (package match_test) reaches the oracle, and
// the decoded and mapped copies that back its graphs, through these.
var (
	BruteForceMatches        = bruteForceMatches
	SnapshotCopy, MappedCopy = snapshotCopy, mappedCopy
)

// The fixtures the matcher's own tests build, for the checker's fixture
// runs.
var (
	TalentGraph, TalentTpl            = talentGraph, talentTpl
	RandomGraph, RandomTemplate       = randomGraph, randomTemplate
	AllInstantiations                 = allInstantiations
	DifferentialSeed            int64 = differentialSeed
)

// PrunedCandidates returns, per node of q's plan at its output that has
// template edges, the candidates passing the node's literals that
// structurePrune's degree/signature check rejects.
func PrunedCandidates(g *graph.Graph, q *query.Instance, mode Mode) map[int][]graph.NodeID {
	m := New(g)
	m.Mode = mode
	p := m.buildPlan(q, q.T.Output, nil, nil)
	if p == nil {
		return nil
	}
	out := map[int][]graph.NodeID{}
	for i, ni := range p.nodes {
		if len(p.adj[i]) == 0 {
			continue
		}
		req := m.structureReq(p, i)
		for _, v := range m.filteredCandidates(q.T.Nodes[ni].Label, q.CompiledLiterals(m.G, ni)) {
			if !m.structureAdmits(req, v) {
				out[ni] = append(out[ni], v)
			}
		}
	}
	return out
}
