package rpq

import (
	"context"
	"sort"

	"fairsqg/internal/graph"
)

// NFA is a Thompson automaton over edge labels with ε-transitions already
// eliminated from the transition relation exposed to evaluation.
type NFA struct {
	numStates int
	start     int
	accept    map[int]bool
	// trans[state] lists (label, next) pairs after ε-closure folding.
	trans [][]transition
	// startClosure is the ε-closure of the start state.
	startClosure []int
}

type transition struct {
	label graph.LabelID
	next  int
}

// builder state during Thompson construction.
type nfaBuilder struct {
	eps    [][]int        // ε edges
	step   [][]rawStep    // labeled edges
	labels map[string]int // interned later against a graph
	names  []string
}

type rawStep struct {
	label string
	next  int
}

func (b *nfaBuilder) newState() int {
	b.eps = append(b.eps, nil)
	b.step = append(b.step, nil)
	return len(b.eps) - 1
}

// fragment is a partial automaton with one entry and one exit state.
type fragment struct{ in, out int }

// build recursively constructs the Thompson fragment for e.
func (b *nfaBuilder) build(e Expr) fragment {
	switch t := e.(type) {
	case Label:
		in, out := b.newState(), b.newState()
		b.step[in] = append(b.step[in], rawStep{label: t.Name, next: out})
		return fragment{in: in, out: out}
	case Concat:
		frags := make([]fragment, len(t.Parts))
		for i, p := range t.Parts {
			frags[i] = b.build(p)
			if i > 0 {
				b.eps[frags[i-1].out] = append(b.eps[frags[i-1].out], frags[i].in)
			}
		}
		return fragment{in: frags[0].in, out: frags[len(frags)-1].out}
	case Alt:
		in, out := b.newState(), b.newState()
		for _, br := range t.Branches {
			f := b.build(br)
			b.eps[in] = append(b.eps[in], f.in)
			b.eps[f.out] = append(b.eps[f.out], out)
		}
		return fragment{in: in, out: out}
	case Star:
		in, out := b.newState(), b.newState()
		f := b.build(t.Body)
		b.eps[in] = append(b.eps[in], f.in, out)
		b.eps[f.out] = append(b.eps[f.out], f.in, out)
		return fragment{in: in, out: out}
	case Plus:
		f := b.build(t.Body)
		out := b.newState()
		b.eps[f.out] = append(b.eps[f.out], f.in, out)
		return fragment{in: f.in, out: out}
	case Opt:
		in, out := b.newState(), b.newState()
		f := b.build(t.Body)
		b.eps[in] = append(b.eps[in], f.in, out)
		b.eps[f.out] = append(b.eps[f.out], out)
		return fragment{in: in, out: out}
	default:
		panic("rpq: unknown expression node")
	}
}

// Compile translates a path expression into an evaluation-ready NFA whose
// labels are interned against g (unknown labels produce dead transitions,
// which is correct: such edges cannot exist in g).
func Compile(e Expr, g *graph.Graph) *NFA {
	b := &nfaBuilder{}
	f := b.build(e)
	n := len(b.eps)

	// ε-closures.
	closure := make([][]int, n)
	for s := 0; s < n; s++ {
		seen := map[int]bool{s: true}
		stack := []int{s}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, nxt := range b.eps[cur] {
				if !seen[nxt] {
					seen[nxt] = true
					stack = append(stack, nxt)
				}
			}
		}
		cl := make([]int, 0, len(seen))
		for st := range seen {
			cl = append(cl, st)
		}
		sort.Ints(cl)
		closure[s] = cl
	}

	nfa := &NFA{
		numStates: n,
		start:     f.in,
		accept:    map[int]bool{},
		trans:     make([][]transition, n),
	}
	// Accepting: any state whose closure reaches f.out.
	for s := 0; s < n; s++ {
		for _, c := range closure[s] {
			if c == f.out {
				nfa.accept[s] = true
			}
		}
	}
	// Fold ε-closures into the transition relation: from s, a labeled step
	// of any state in closure(s) is available.
	for s := 0; s < n; s++ {
		seen := map[transition]bool{}
		for _, c := range closure[s] {
			for _, rs := range b.step[c] {
				id := g.LookupLabel(rs.label)
				if id == graph.InvalidLabel {
					continue
				}
				tr := transition{label: id, next: rs.next}
				if !seen[tr] {
					seen[tr] = true
					nfa.trans[s] = append(nfa.trans[s], tr)
				}
			}
		}
	}
	nfa.startClosure = closure[f.in]
	return nfa
}

// AcceptsEmpty reports whether the empty word is in the language (a source
// node then matches itself as a target).
func (n *NFA) AcceptsEmpty() bool { return n.accept[n.start] }

// Eval computes the targets reachable from the given sources along paths
// whose label word is accepted, using at most maxHops edges. The result is
// sorted and deduplicated. ctx is polled once per hop; a cancelled
// evaluation returns nil.
func (n *NFA) Eval(ctx context.Context, g *graph.Graph, sources []graph.NodeID, maxHops int) []graph.NodeID {
	type pair struct {
		node  graph.NodeID
		state int
	}
	seen := make(map[pair]bool, len(sources)*2)
	accepted := map[graph.NodeID]bool{}
	frontier := make([]pair, 0, len(sources))
	for _, s := range sources {
		p := pair{node: s, state: n.start}
		if !seen[p] {
			seen[p] = true
			frontier = append(frontier, p)
			if n.accept[n.start] {
				accepted[s] = true
			}
		}
	}
	for hop := 0; hop < maxHops && len(frontier) > 0; hop++ {
		if ctx.Err() != nil {
			return nil
		}
		var next []pair
		for _, p := range frontier {
			for _, tr := range n.trans[p.state] {
				for _, e := range g.Out(p.node) {
					if e.Label != tr.label {
						continue
					}
					np := pair{node: e.To, state: tr.next}
					if seen[np] {
						continue
					}
					seen[np] = true
					if n.accept[tr.next] {
						accepted[e.To] = true
					}
					next = append(next, np)
				}
			}
		}
		frontier = next
	}
	out := make([]graph.NodeID, 0, len(accepted))
	for v := range accepted {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
