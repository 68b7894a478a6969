package match

import (
	"fairsqg/internal/graph"
	"fairsqg/internal/query"
)

// Domains is the arc-consistent candidate sets one instance's plan ended
// propagation with, one label-local bitset per active template node: what
// a refinement of that instance starts its own plan from (see buildPlan).
// Lemma 2's monotonicity holds for every template node, not only the
// output node — refinement adds literals and edges, so each node's
// arc-consistent set can only shrink.
//
// A Domains belongs to the Engine that handed it out: a refinement walker
// holds it while it walks the instance's subtree and gives it back with
// ReleaseDomains. It is read-only while held, so one may seed evaluations
// on any number of goroutines — of that engine only: the sets are positions
// in its graph generation's label populations, so another engine ignores it
// as a seed and refuses to take it back.
type Domains struct {
	owner *Engine
	// q is the instance the sets were computed for and pin the template
	// node its plan was rooted at: the node a within set narrowed, so the
	// sets seed plans pinned there only.
	q   *query.Instance
	pin int
	// narrowed records that the plan ran under a within set: the sets then
	// hold nothing outside it, so they seed evaluations that pass a within
	// set of their own only.
	narrowed bool
	// sets and sizes are indexed by template node; sizes[ni] is the
	// cardinality of sets[ni] and 0 where q leaves ni inactive (an active
	// node of a plan never has an empty set, and a stale one is never
	// read). A slot's words are kept across reuse and regrown, to exactly
	// the label population asked for, only when too small.
	sets  []graph.Bitset
	sizes []int
}

// capture fills d with the candidate sets of p, a plan m has propagated to
// its fixpoint; narrowed says the plan ran under a within set.
func (d *Domains) capture(m *Matcher, p *plan, narrowed bool) {
	d.q, d.pin, d.narrowed = p.q, p.nodes[p.rootIdx], narrowed
	for n := len(p.q.T.Nodes); len(d.sets) < n; {
		d.sets, d.sizes = append(d.sets, graph.Bitset{}), append(d.sizes, 0)
	}
	clear(d.sizes)
	for i, ni := range p.nodes {
		pop := len(m.G.NodesByLabelID(p.labels[i]))
		words := d.sets[ni].Words()
		if nw := (pop + 63) / 64; cap(words) < nw {
			words = make([]uint64, nw)
		}
		set := graph.BitsetOver(words, pop)
		if src := p.candBits[i].Words(); src != nil {
			copy(set.Words(), src)
		} else {
			// A node without constraint edges has no bitset in the plan.
			for _, v := range p.cands[i] {
				set.Set(int(uint32(m.labelPos.At(int(v)))))
			}
		}
		d.sets[ni], d.sizes[ni] = set, len(p.cands[i])
	}
}

// seeds reports whether d can seed a plan of q pinned at pin, under a
// within set or not: d is held, was pinned there too, was not narrowed by a
// within set the new plan does without, and q refines the instance d was
// captured from. (Two within sets are not compared: a walk passes the
// matches of an instance between d's and q, which only shrink.)
func (d *Domains) seeds(q *query.Instance, pin int, narrowed bool) bool {
	return d != nil && d.q != nil && d.pin == pin && (narrowed || !d.narrowed) && query.Refines(q, d.q)
}

// moved reports whether a variable bound in a literal of template node ni
// sits at a different level in q than in d's instance: only then do the
// node's literals reject anything its inherited set holds.
func (d *Domains) moved(q *query.Instance, ni int) bool {
	for _, l := range q.T.Nodes[ni].Literals {
		if l.Parameterized() && q.I[l.Var] != d.q.I[l.Var] {
			return true
		}
	}
	return false
}
