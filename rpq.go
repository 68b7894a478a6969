package fairsqg

import (
	"fairsqg/internal/rpq"
)

// The rpq types extend FairSQG to regular path queries — the query class
// the paper's conclusion names as future work. An RPQ template selects
// target nodes reachable from predicate-filtered source nodes along paths
// in a regular language over edge labels, within a bounded hop count; its
// parameters (source-predicate range variables, alternation-branch flags,
// the hop-bound ladder) span an instance lattice with the same
// monotonicity properties as subgraph templates, so it runs on the same
// Generator: only what computes an answer differs.
type (
	// RPQExpr is a regular expression over edge labels.
	RPQExpr = rpq.Expr
	// RPQTemplate is a parameterized regular path query.
	RPQTemplate = rpq.Template
)

// ParsePathExpr parses a path expression: labels, '/' concatenation, '|'
// alternation, '*', '+', '?' and parentheses (e.g. "cites/(refs|links)*").
func ParsePathExpr(src string) (RPQExpr, error) { return rpq.Parse(src) }

// NewRPQTemplate assembles an RPQ template over a source label, a path
// expression (whose top-level alternation branches become Boolean
// variables) and a strictly descending hop-bound ladder.
func NewRPQTemplate(name, sourceLabel string, expr RPQExpr, bounds []int) (*RPQTemplate, error) {
	return rpq.NewTemplate(name, sourceLabel, expr, bounds)
}

// NewRPQConfig lowers an RPQ template (its ladders bound) over g into a
// Config for NewGenerator: Template is a one-node carrier spanning the RPQ's
// instance lattice, Evaluator answers its instances by bounded product-BFS,
// every target is equally relevant and δ is normalized by |V|. Set Groups,
// Eps and any other field as for a subgraph template; every algorithm, Ctx
// and the scoring knobs apply. A result's Verified.Matches are the targets,
// and t.Describe(v.Q.I) renders the instance.
func NewRPQConfig(g *Graph, t *RPQTemplate) (*Config, error) { return t.Config(g) }
