package measure

import "fairsqg/internal/graph"

// ProfileRelevance scores a match by its similarity to a reference
// attribute profile — a stand-in for the entity-linkage relevance the
// paper cites as an alternative r(u_o, ·). The score is 1 minus the
// normalized tuple distance between the node and the profile, so nodes
// matching the profile exactly score 1 and completely different nodes 0.
func ProfileRelevance(g *graph.Graph, profile map[string]graph.Value) RelevanceFunc {
	if len(profile) == 0 {
		return ConstantRelevance(1)
	}
	attrs := make([]string, 0, len(profile))
	for a := range profile {
		attrs = append(attrs, a)
	}
	spans, ids := make([]float64, len(attrs)), make([]graph.AttrID, len(attrs))
	for i, a := range attrs {
		_, spans[i] = finiteNumbers(g.ActiveDomain(a))
		ids[i] = g.AttrIDOf(a) // resolved once; the closure runs per scored node
	}
	return func(v graph.NodeID) float64 {
		total := 0.0
		for i, a := range attrs {
			total += attrDistance(g.AttrValue(v, ids[i]), profile[a], spans[i])
		}
		return 1 - total/float64(len(attrs))
	}
}

// CombinedRelevance averages several relevance functions — e.g. degree
// prestige blended with profile similarity.
func CombinedRelevance(fns ...RelevanceFunc) RelevanceFunc {
	if len(fns) == 0 {
		return ConstantRelevance(1)
	}
	return func(v graph.NodeID) float64 {
		total := 0.0
		for _, fn := range fns {
			total += fn(v)
		}
		return total / float64(len(fns))
	}
}
