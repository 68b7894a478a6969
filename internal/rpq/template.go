package rpq

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"fairsqg/internal/core"
	"fairsqg/internal/graph"
	"fairsqg/internal/measure"
	"fairsqg/internal/query"
)

// Variable parameterizes one source-node predicate "source.Attr Op $x".
type Variable struct {
	Name   string
	Attr   string
	Op     graph.Op
	Ladder []graph.Value // relaxed → refined, installed by BindDomains
}

// Template is a parameterized regular path query: find targets reachable
// from predicate-filtered source nodes along paths in a regular language,
// within a bounded number of hops. Three kinds of parameters mirror the
// subgraph-template variables:
//
//   - range variables on the source predicates (literal refinement),
//   - one Boolean flag per top-level alternation branch (disabling a
//     branch shrinks the language — the analogue of an edge variable),
//   - the hop-bound ladder (smaller bounds admit fewer paths).
//
// The template owns what its parameters mean; the lattice they span, and
// the generation over it, are query's and core's (see Config).
type Template struct {
	Name        string
	SourceLabel string
	Expr        Expr
	// Branches are the top-level alternation branches of Expr.
	Branches []Expr
	// Bounds is the hop-bound ladder, strictly descending (relaxed first).
	Bounds []int
	// Vars are the range variables over source attributes.
	Vars []Variable
}

// NewTemplate assembles a template; expr's top-level alternation branches
// become the Boolean structure variables. Bounds must be strictly
// descending positive hop limits.
func NewTemplate(name, sourceLabel string, expr Expr, bounds []int) (*Template, error) {
	if sourceLabel == "" {
		return nil, fmt.Errorf("rpq: template needs a source label")
	}
	if len(bounds) == 0 {
		return nil, fmt.Errorf("rpq: template needs at least one hop bound")
	}
	for i, b := range bounds {
		if b <= 0 {
			return nil, fmt.Errorf("rpq: hop bound %d must be positive", b)
		}
		if i > 0 && bounds[i] >= bounds[i-1] {
			return nil, fmt.Errorf("rpq: hop bounds must be strictly descending, got %v", bounds)
		}
	}
	return &Template{
		Name:        name,
		SourceLabel: sourceLabel,
		Expr:        expr,
		Branches:    TopBranches(expr),
		Bounds:      bounds,
	}, nil
}

// AddVar attaches a range variable "source.attr op $name".
func (t *Template) AddVar(name, attr string, op graph.Op) *Template {
	t.Vars = append(t.Vars, Variable{Name: name, Attr: attr, Op: op})
	return t
}

// carrier lowers the template to the one-node query.Template whose instance
// lattice is the RPQ's, variables in the order [Vars..., one per branch,
// hops]. The source predicates are real literals on the node. Each branch is
// a pinned one-value variable — wildcard: enabled, level 0: dropped — and the
// hop bound one over Bounds[1:] — wildcard: the widest bound, Bounds[0];
// absent when there is one bound — so query.Root is the most relaxed RPQ and
// every query.RefineSteps edge tightens a predicate, drops a branch or lowers
// the bound. The pseudo-variables' literals name attributes no graph has:
// nothing ever matches a carrier, an Evaluator answers it.
func (t *Template) carrier() (*query.Template, error) {
	b := query.NewBuilder(t.Name).Node("source", t.SourceLabel).Output("source")
	for _, v := range t.Vars {
		b.RangeVar(v.Name, "source", v.Attr, v.Op).SetLadder(v.Name, v.Ladder...)
	}
	for bi := range t.Branches {
		name := fmt.Sprintf("drop%d", bi)
		b.RangeVar(name, "source", "path:"+name, graph.OpEQ).SetLadder(name, graph.Bool(true))
	}
	if len(t.Bounds) > 1 {
		hops := make([]graph.Value, len(t.Bounds)-1)
		for i, bound := range t.Bounds[1:] {
			hops[i] = graph.Int(int64(bound))
		}
		b.RangeVar("hops", "source", "path:hops", graph.OpLE).SetLadder("hops", hops...)
	}
	return b.Build()
}

// BindDomains installs value ladders from the label-restricted active
// domain of each variable's attribute, through the subgraph templates'
// binder (query.Template.BindMissingDomains; the branch and hop ladders are
// pinned). maxValues caps a ladder's length, 0 for no cap.
func (t *Template) BindDomains(g *graph.Graph, maxValues int) error {
	for vi := range t.Vars {
		t.Vars[vi].Ladder = nil
	}
	c, err := t.carrier()
	if err != nil {
		return err
	}
	if err := c.BindMissingDomains(g, query.DomainOptions{MaxValues: maxValues}); err != nil {
		return err
	}
	for vi := range t.Vars {
		t.Vars[vi].Ladder = c.Vars[vi].Ladder
	}
	return nil
}

// Config lowers the template over g onto the generation stack: a
// core.Config holding the carrier template, the Evaluator that answers its
// instances, and the RPQ scoring defaults — every target equally relevant
// (Relevance), δ normalized by |V| because targets may span labels
// (Evaluator.Population). The caller sets Groups, Eps and whatever else a
// subgraph run would, runs any of core's algorithms on it, and reads an
// instance's Q.I back through Describe, Sources, EnabledExpr and Bound.
// Ladders are taken as they are now: call BindDomains first.
func (t *Template) Config(g *graph.Graph) (*core.Config, error) {
	c, err := t.carrier()
	if err != nil {
		return nil, err
	}
	return &core.Config{
		G: g, Template: c,
		Evaluator: &Evaluator{t: t, g: g, nfas: map[uint64]*NFA{}},
		Relevance: measure.ConstantRelevance(1),
	}, nil
}

// Evaluator answers a template's carrier instances over one graph — the
// core.Evaluator of an RPQ run. It compiles one NFA per set of enabled
// branches, in a table the workers of a parallel run share.
type Evaluator struct {
	t *Template
	g *graph.Graph

	mu   sync.Mutex
	nfas map[uint64]*NFA // by BranchMask; nil for the empty language
}

// Answer returns the targets of q, sorted.
func (e *Evaluator) Answer(ctx context.Context, q *query.Instance) []graph.NodeID {
	mask := e.t.BranchMask(q.I)
	e.mu.Lock()
	nfa, ok := e.nfas[mask]
	if !ok {
		if expr := e.t.EnabledExpr(q.I); expr != nil {
			nfa = Compile(expr, e.g)
		}
		e.nfas[mask] = nfa
	}
	e.mu.Unlock()
	if nfa == nil {
		return nil
	}
	return nfa.Eval(ctx, e.g, e.t.Sources(e.g, q.I), e.t.Bound(q.I))
}

// Population is |V|: any node can be a target.
func (e *Evaluator) Population() int { return e.g.NumNodes() }

// enabled reports whether in keeps branch bi.
func (t *Template) enabled(in query.Instantiation, bi int) bool {
	return in[len(t.Vars)+bi] == query.Wildcard
}

// EnabledExpr returns the expression restricted to the enabled branches,
// or nil when every branch is disabled (the empty language).
func (t *Template) EnabledExpr(in query.Instantiation) Expr {
	var enabled []Expr
	for bi, br := range t.Branches {
		if t.enabled(in, bi) {
			enabled = append(enabled, br)
		}
	}
	switch len(enabled) {
	case 0:
		return nil
	case 1:
		return enabled[0]
	default:
		return Alt{Branches: enabled}
	}
}

// BranchMask packs the enabled branches for NFA caching.
func (t *Template) BranchMask(in query.Instantiation) uint64 {
	var mask uint64
	for bi := range t.Branches {
		if t.enabled(in, bi) {
			mask |= 1 << uint(bi)
		}
	}
	return mask
}

// Bound returns the hop limit selected by in.
func (t *Template) Bound(in query.Instantiation) int {
	if hops := len(t.Vars) + len(t.Branches); hops < len(in) {
		return t.Bounds[in[hops]+1]
	}
	return t.Bounds[0]
}

// Sources returns the source nodes satisfying the bound literals.
func (t *Template) Sources(g *graph.Graph, in query.Instantiation) []graph.NodeID {
	ids := make([]graph.AttrID, len(t.Vars))
	for vi := range t.Vars {
		ids[vi] = g.AttrIDOf(t.Vars[vi].Attr)
	}
	var out []graph.NodeID
	for _, v := range g.NodesByLabel(t.SourceLabel) {
		ok := true
		for vi := range t.Vars {
			level := in[vi]
			if level == query.Wildcard {
				continue
			}
			if !t.Vars[vi].Op.Apply(g.AttrValue(v, ids[vi]), t.Vars[vi].Ladder[level]) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, v)
		}
	}
	return out
}

// Describe renders an instance for display.
func (t *Template) Describe(in query.Instantiation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s{", t.Name)
	for vi := range t.Vars {
		if vi > 0 {
			b.WriteString(", ")
		}
		v := &t.Vars[vi]
		if in[vi] == query.Wildcard {
			fmt.Fprintf(&b, "%s=_", v.Name)
		} else {
			fmt.Fprintf(&b, "%s%s%s", v.Attr, v.Op, v.Ladder[in[vi]])
		}
	}
	if e := t.EnabledExpr(in); e != nil {
		fmt.Fprintf(&b, "; path=%s", e)
	} else {
		b.WriteString("; path=∅")
	}
	fmt.Fprintf(&b, "; hops<=%d}", t.Bound(in))
	return b.String()
}
