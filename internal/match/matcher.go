// Package match implements the subgraph-matching substrate of FairSQG:
// given a query instance and an attributed graph it computes the output
// node's match set q(u_o, G) under subgraph isomorphism (injective) or
// homomorphism semantics. It supports incremental verification — when an
// instance refines an already-verified parent, only the parent's match set
// needs to be re-checked (Lemma 2 of the paper) — and extends it to every
// template node: a plan can start from a verified ancestor's arc-consistent
// candidate sets (Domains) instead of the label populations.
package match

import (
	"context"
	"math/bits"
	"slices"
	"sort"

	"fairsqg/internal/graph"
	"fairsqg/internal/query"
)

// Mode selects the matching semantics.
type Mode uint8

const (
	// Isomorphism requires the matching h to be injective on query nodes.
	Isomorphism Mode = iota
	// Homomorphism allows two query nodes to map to the same graph node.
	Homomorphism
)

// Settings is how a matcher searches: everything about an evaluation that
// is not part of the configuration C = (G, Q(u_o), P, ε). It is declared
// once, here, and embedded by Matcher, EngineOptions and core.Config. The
// zero value is what the CLIs and the server run.
type Settings struct {
	// Mode selects the matching semantics (default Isomorphism).
	Mode Mode
	// MaxBacktrackNodes bounds the search tree expanded per output-node
	// candidate; 0 means unbounded. When the bound trips the candidate is
	// conservatively reported as a non-match.
	MaxBacktrackNodes int
}

// Stats counts work done by the matcher; cumulative across calls.
type Stats struct {
	// Evals is the number of instance evaluations performed.
	Evals int
	// CandidatesChecked counts output-node candidates tested.
	CandidatesChecked int
	// BacktrackNodes counts search-tree nodes expanded.
	BacktrackNodes int
	// IndexSelections counts candidate selections answered through a
	// sorted per-(label, attribute) index; ScanSelections counts linear
	// label scans (unconstrained nodes, and literal sets whose narrowest
	// index range is too wide).
	IndexSelections int
	ScanSelections  int
	// SigPruned counts candidates rejected by the degree and
	// neighborhood-label-signature check before entering a candidate set.
	SigPruned int
	// ArcsRevised counts arc revisions made by arc-consistency propagation;
	// ArcsInherited counts the arcs a seeded plan's first sweep did not
	// revise because a verified ancestor's fixpoint already vouched for
	// them (0 on an unseeded plan, whose first sweep revises every arc).
	ArcsRevised   int
	ArcsInherited int
	// ScratchPlans counts the plans started from label populations instead
	// of a verified ancestor's domains: one per generation for a run that
	// inherits (the root's), one per evaluation for one that does not.
	ScratchPlans int
}

// Add folds another matcher's counters into s.
func (s *Stats) Add(o Stats) {
	s.Evals += o.Evals
	s.CandidatesChecked += o.CandidatesChecked
	s.BacktrackNodes += o.BacktrackNodes
	s.IndexSelections += o.IndexSelections
	s.ScanSelections += o.ScanSelections
	s.SigPruned += o.SigPruned
	s.ArcsRevised += o.ArcsRevised
	s.ArcsInherited += o.ArcsInherited
	s.ScratchPlans += o.ScratchPlans
}

// Matcher evaluates query instances against one frozen graph.
//
// A Matcher's mutable state (Stats, the backtracking scratch) is NOT safe
// for concurrent use: create one Matcher per goroutine, or use Engine,
// which maintains a pool of per-goroutine Matchers behind a goroutine-safe
// API. The frozen Graph and an attached CandidateCache are themselves safe
// to share between any number of Matchers.
type Matcher struct {
	G *graph.Graph
	Settings
	// Cache, when non-nil, memoizes the label+literal candidate filtering
	// phase across evaluations (and across Matchers sharing the cache).
	// Results are unchanged; only repeated nodeSatisfies scans are skipped.
	Cache *CandidateCache

	Stats Stats

	// ctx, when non-nil, is polled during backtracking so deadline/cancel
	// aborts propagate through extend; set via bind or by Engine.
	ctx context.Context
	// aborted records that ctx fired mid-evaluation: the evaluation's
	// result is a conservative partial answer and must be discarded.
	aborted bool

	// Backtracking scratch reused across evaluations: used is an
	// isomorphism-injectivity bitset over all of V, assign the current
	// partial matching indexed by plan node, nodesLeft/exhausted the
	// explicit search budget (exhausted distinguishes "budget used up" from
	// the MaxBacktrackNodes == 0 "unbounded" zero).
	used      []uint64
	assign    []graph.NodeID
	nodesLeft int
	exhausted bool
	// assignedMask mirrors assign as a bitmask over plan indexes, and
	// reachMask is the union of adjMask over the assigned prefix, so
	// reachMask &^ assignedMask is exactly the frontier pickNext chooses
	// from — no per-node scan. Both are maintained only while adjMask is
	// non-nil (plans of ≤ 64 nodes); larger plans fall back to the scan.
	assignedMask uint64
	reachMask    uint64
	// scratch is the propagation semijoin mask, reused across arcs.
	scratch []uint64
	// dirtyPrev/dirtyNext drive the propagation worklist: buildPlan marks
	// in dirtyPrev the nodes whose arcs the first sweep must revise.
	dirtyPrev, dirtyNext []bool

	// Plan arena: the buffers buildPlan takes every population-sized piece
	// of a plan from — the private copies of cached candidate lists, the
	// within filter buffer, the candidate bitsets. The k-th piece of every
	// plan reuses the k-th buffer (idsUsed and wordsUsed count the pieces
	// of the current plan), which grows to the largest piece it has held.
	// A plan never outlives the next buildPlan on its matcher (the engine
	// holds the planner until every worker is done with the plan), so
	// nothing taken from the arena may be handed to a caller.
	idBufs    [][]graph.NodeID
	wordBufs  [][]uint64
	idsUsed   int
	wordsUsed int

	// Frozen-graph tables captured at New (shared, read-only). The inner
	// loops read them through their inlined At and Span instead of Graph
	// accessor calls: outAdj/inAdj are the sorted adjacency lists,
	// outRuns/inRuns the run-boundary tables (not Valid past the graph's
	// size cap, in which case Graph.EdgeRun is the fallback), labelPos the
	// packed label+rank table, sigOut/sigIn the neighborhood signatures.
	outAdj, inAdj   graph.Table[[]graph.Edge]
	outRuns, inRuns graph.Runs
	labelPos        graph.Table[uint64]
	sigOut, sigIn   graph.Table[uint64]
}

// New returns a Matcher over a frozen graph with isomorphism semantics.
func New(g *graph.Graph) *Matcher {
	m := &Matcher{}
	m.rebind(g)
	return m
}

// rebind points m at g, a frozen graph, keeping its scratch and arenas (the
// injectivity bitset is clear between evaluations).
func (m *Matcher) rebind(g *graph.Graph) {
	if !g.Frozen() {
		panic("match: graph must be frozen")
	}
	words := (g.NumNodes() + 63) / 64
	m.G, m.used = g, slices.Grow(m.used[:0], words)[:words]
	m.outAdj, m.inAdj = g.Adjacency(true), g.Adjacency(false)
	m.outRuns, m.inRuns = g.RunStarts(true), g.RunStarts(false)
	m.labelPos = g.LabelPosTable()
	m.sigOut, m.sigIn = g.SignatureTables()
}

// runLen is len(EdgeRun(v, label, outgoing)) via the boundary tables.
func (m *Matcher) runLen(v graph.NodeID, label graph.LabelID, outgoing bool) int {
	runs := &m.outRuns
	if !outgoing {
		runs = &m.inRuns
	}
	if !runs.Valid() {
		return len(m.G.EdgeRun(v, label, outgoing))
	}
	lo, hi := runs.Span(v, label)
	return int(hi - lo)
}

func (m *Matcher) usedGet(v graph.NodeID) bool { return m.used[v>>6]&(1<<uint(v&63)) != 0 }
func (m *Matcher) usedSet(v graph.NodeID)      { m.used[v>>6] |= 1 << uint(v&63) }
func (m *Matcher) usedClear(v graph.NodeID)    { m.used[v>>6] &^= 1 << uint(v&63) }

// arenaNext returns the plan's next arena buffer, empty and of capacity at
// least n: the buffer grows if this is the largest request it has seen.
func arenaNext[T any](bufs *[][]T, used *int, n int) []T {
	if *used == len(*bufs) {
		*bufs = append(*bufs, nil)
	}
	buf := &(*bufs)[*used]
	*used++
	if cap(*buf) < n {
		*buf = make([]T, 0, n)
	}
	return *buf
}

// arenaIDs returns an empty NodeID slice of capacity at least n from the
// plan arena.
func (m *Matcher) arenaIDs(n int) []graph.NodeID {
	return arenaNext(&m.idBufs, &m.idsUsed, n)
}

// arenaBitset returns an empty bitset over [0, n) from the plan arena.
func (m *Matcher) arenaBitset(n int) graph.Bitset {
	return graph.BitsetOver(arenaNext(&m.wordBufs, &m.wordsUsed, (n+63)/64), n)
}

// plan is the per-instance evaluation plan: active structure and candidate
// sets, searched from the pinned node outward (pickNext).
type plan struct {
	q       *query.Instance
	nodes   []int // active template nodes
	nodePos []int // template node -> index in nodes (-1 when inactive)
	rootIdx int   // index (into nodes) of the pinned node
	adj     [][]planEdge
	// adjMask is a neighbor bitmask per node (bit j set when some active
	// edge joins nodes i and j) and fullMask has one bit per plan node,
	// valid for plans of ≤ 64 nodes (adjMask is nil beyond that); pickNext
	// derives the search frontier from them and the matcher's assignedMask
	// without scanning nodes or edge lists.
	adjMask  []uint64
	fullMask uint64
	cands    [][]graph.NodeID
	// candBits mirrors cands as dense bitsets over label-local positions
	// (graph.LabelPos); nil for nodes without constraint edges, which never
	// need membership tests.
	candBits  []graph.Bitset
	labels    []graph.LabelID // per plan node: interned node label
	edgeCount int
}

// planEdge is one incident active edge from the perspective of a node.
type planEdge struct {
	other    int // index into plan.nodes
	label    graph.LabelID
	outgoing bool // true when the edge leaves this node
	// fresh marks an edge the plan's seed did not have (every edge, without
	// a seed): no fixpoint vouches for its arcs yet, so propagation's first
	// sweep revises them whatever the sets at its ends did.
	fresh bool
}

// inSet reports whether the node whose packed label+rank is lp is in plan
// node i's candidate set: the label must match (bitset positions are
// label-local) and the bit at the node's label rank must be set. The packed
// label+rank table resolves both in one load, which the caller makes.
func (p *plan) inSet(i int, lp uint64) bool {
	return graph.LabelID(lp>>32) == p.labels[i] && p.candBits[i].Get(int(uint32(lp)))
}

// EvalOutput computes q(G) = q(u_o, G): the distinct graph nodes the output
// node matches to. The result is sorted.
func (m *Matcher) EvalOutput(q *query.Instance) []graph.NodeID {
	return m.EvalOutputWithin(q, nil)
}

// EvalOutputWithin is EvalOutput restricted to output-node candidates drawn
// from within (nil means all nodes with the output label). Passing the
// verified parent's match set implements the paper's incVerify: a refined
// instance's matches are a subset of its parent's.
func (m *Matcher) EvalOutputWithin(q *query.Instance, within []graph.NodeID) []graph.NodeID {
	matches, _ := m.EvalNodeFiltered(q, q.T.Output, within, nil)
	return matches
}

// EvalNode computes q(u, G) for an arbitrary template node: the graph
// nodes u maps to across all matchings. An inactive node (projected out of
// the output component) has no matches.
func (m *Matcher) EvalNode(q *query.Instance, node int) []graph.NodeID {
	matches, _ := m.EvalNodeFiltered(q, node, nil, nil)
	return matches
}

// EvalNodeFiltered is EvalNode with a within set and an admission check:
// within restricts the node's candidates (a verified parent's match set for
// the same node is a valid superset under refinement). After the cheap
// candidate-filtering phase, accept is offered the node's arc-consistent
// candidates, a superset of its matches; when it returns false the
// backtracking phase is skipped and ok is false (any monotone predicate over
// candidate supersets, e.g. coverage upper bounds, is sound here). A nil
// accept admits everything.
func (m *Matcher) EvalNodeFiltered(q *query.Instance, node int, within []graph.NodeID,
	accept func(candidates []graph.NodeID) bool) (matches []graph.NodeID, ok bool) {
	m.Stats.Evals++
	if !q.NodeActive(node) {
		return nil, true
	}
	p := m.buildPlan(q, node, within, nil)
	if p == nil {
		return nil, true
	}
	rootCands := p.cands[p.rootIdx]
	if accept != nil && !accept(rootCands) {
		return nil, false
	}
	if len(p.nodes) == 1 {
		// The instance collapsed to this node alone: every candidate is a
		// match. The candidates are the plan's, so the caller gets a copy.
		return sortedCopy(rootCands), true
	}
	return m.embedAll(p, rootCands), true
}

// buildPlan computes candidate sets with label/literal filtering, degree
// and neighborhood-signature pruning, and arc-consistency propagation over
// label-local bitsets, rooted at pin (the node whose matches are being
// computed). It returns nil when some active node has no candidates (empty
// q(G)).
//
// seed, when it holds the domains of an instance q refines (Domains.seeds),
// is where the plan starts from instead of the label populations. A node
// the ancestor's plan had takes the ancestor's set, re-checked against its
// literals only if one of its variables moved and against its structural
// requirement only if an edge at it is fresh; a node it lacked is expanded
// from a neighbor (expandNew); and propagation's first sweep revises only
// the fresh arcs and the arcs against nodes whose set differs from the
// ancestor's. The candidate sets the plan ends with are the ones a nil seed
// gives: the ancestor's fixpoint contains the child's (restricted to the
// ancestor's nodes, the child's fixpoint is arc-consistent over the
// ancestor's edges and lies inside the ancestor's start), so the seeded
// start lies between the child's fixpoint and its from-scratch start, and
// the greatest arc-consistent subset of anything in between is the same
// set. DESIGN.md §5j has the argument in full.
func (m *Matcher) buildPlan(q *query.Instance, pin int, within []graph.NodeID, seed *Domains) *plan {
	if !seed.seeds(q, pin, within != nil) {
		seed = nil
		m.Stats.ScratchPlans++
	}
	t := q.T
	p := &plan{q: q, nodes: q.ActiveNodes(), nodePos: make([]int, len(t.Nodes))}
	for i := range p.nodePos {
		p.nodePos[i] = -1
	}
	for i, ni := range p.nodes {
		p.nodePos[ni] = i
	}
	n := len(p.nodes)
	p.adj = make([][]planEdge, n)
	if n <= 64 {
		p.adjMask = make([]uint64, n)
		p.fullMask = ^uint64(0)
		if n < 64 {
			p.fullMask = 1<<uint(n) - 1
		}
	}
	// dirty[i] asks propagation's first sweep to revise node i's neighbors
	// against it: every node without a seed, else those whose set differs
	// from the seed's.
	if cap(m.dirtyPrev) < n {
		m.dirtyPrev, m.dirtyNext = make([]bool, n), make([]bool, n)
	}
	dirty := m.dirtyPrev[:n]
	for i := range dirty {
		dirty[i] = seed == nil
	}
	clear(m.dirtyNext[:n])
	var inherited []int // the seed's active edges not yet passed, ascending like q's
	if seed != nil {
		inherited = seed.q.ActiveEdges()
	}
	for _, ei := range q.ActiveEdges() {
		e := &t.Edges[ei]
		fi, ti := p.nodePos[e.From], p.nodePos[e.To]
		label := m.G.LookupLabel(e.Label)
		if label == graph.InvalidLabel {
			// The edge label never occurs in G: no embedding exists.
			return nil
		}
		for len(inherited) > 0 && inherited[0] < ei {
			inherited = inherited[1:]
		}
		fresh := len(inherited) == 0 || inherited[0] != ei
		p.adj[fi] = append(p.adj[fi], planEdge{other: ti, label: label, outgoing: true, fresh: fresh})
		p.adj[ti] = append(p.adj[ti], planEdge{other: fi, label: label, outgoing: false, fresh: fresh})
		if p.adjMask != nil {
			p.adjMask[fi] |= 1 << uint(ti)
			p.adjMask[ti] |= 1 << uint(fi)
		}
		p.edgeCount++
	}
	p.labels = make([]graph.LabelID, n)
	p.cands = make([][]graph.NodeID, n)
	p.candBits = make([]graph.Bitset, n)
	p.rootIdx = p.nodePos[pin]
	m.idsUsed, m.wordsUsed = 0, 0 // the previous plan is dead
	pending := 0
	for i, ni := range p.nodes {
		p.labels[i] = m.G.LookupLabel(t.Nodes[ni].Label)
		lits := q.CompiledLiterals(m.G, ni)
		// had is the size of the set the node inherits, 0 when it starts
		// from its label; unmoved literals already hold on an inherited set.
		had := 0
		if seed != nil {
			had = seed.sizes[ni]
		}
		if had > 0 && !seed.moved(q, ni) {
			lits = nil
		}
		var cands []graph.NodeID
		switch {
		case i == p.rootIdx && within != nil:
			cands = m.arenaIDs(len(within))
			for _, v := range within {
				lp := m.labelPos.At(int(v))
				if graph.LabelID(lp>>32) != p.labels[i] || had > 0 && !seed.sets[ni].Get(int(uint32(lp))) {
					continue
				}
				if nodeSatisfies(m.G, v, lits) {
					cands = append(cands, v)
				}
			}
		case had > 0:
			cands = m.arenaIDs(had)
			base := m.G.NodesByLabelID(p.labels[i])
			for wi, w := range seed.sets[ni].Words() {
				for ; w != 0; w &= w - 1 {
					if v := base[wi<<6+bits.TrailingZeros64(w)]; nodeSatisfies(m.G, v, lits) {
						cands = append(cands, v)
					}
				}
			}
		case seed != nil:
			pending++ // a node the seed lacks: expandNew derives its start
			continue
		default:
			cands = m.filteredCandidates(t.Nodes[ni].Label, lits)
		}
		// An inherited set already meets the requirement of the edges the
		// seed had; a fresh edge raises it.
		if slices.ContainsFunc(p.adj[i], func(pe planEdge) bool { return pe.fresh }) {
			cands = m.structurePrune(p, i, cands)
		}
		if len(cands) == 0 {
			return nil
		}
		if len(cands) != had {
			dirty[i] = true
		}
		p.cands[i] = cands
	}
	if pending > 0 && !m.expandNew(p, pending) {
		return nil
	}
	for i := range p.nodes {
		// Only nodes referenced by a constraint edge need the set form;
		// skipping the rest keeps single-node plans bitset-free.
		if len(p.adj[i]) == 0 || p.candBits[i].Len() > 0 {
			continue
		}
		set := m.arenaBitset(len(m.G.NodesByLabelID(p.labels[i])))
		for _, v := range p.cands[i] {
			set.Set(int(m.G.LabelPos(v)))
		}
		p.candBits[i] = set
	}
	if !m.propagate(p) {
		return nil
	}
	return p
}

// nodeReq is the structural requirement profile of one plan node: the
// signature bits its candidates must carry, per (label, direction) the
// minimum incident-edge count an embedding needs, and the labels of the
// node's self-loop edges, each of which a candidate v must carry as v → v.
type nodeReq struct {
	sigOut, sigIn uint64
	counts        []labelCount
	loops         []graph.LabelID
}

// labelCount is one (label, direction) requirement with the minimum number
// of graph edges a candidate must offer.
type labelCount struct {
	label    graph.LabelID
	outgoing bool
	need     int
}

// structureReq derives plan node i's requirement from its incident active
// edges. Under isomorphism, k distinct template neighbors over one (label,
// direction) map to k distinct graph neighbors, each contributing at least
// one edge, so a candidate needs ≥ k edges in that run; under homomorphism
// neighbors may coincide, so one edge suffices (the signature bit covers
// it). Adjacency lists are template-sized, so the quadratic scans are a
// handful of comparisons.
func (m *Matcher) structureReq(p *plan, i int) nodeReq {
	var req nodeReq
	adj := p.adj[i]
	for ei, pe := range adj {
		bit := graph.LabelSigBit(pe.label)
		if pe.outgoing {
			req.sigOut |= bit
			if pe.other == i {
				req.loops = append(req.loops, pe.label)
			}
		} else {
			req.sigIn |= bit
		}
		// Emit one count per (label, direction): skip if an earlier edge
		// already covered this pair.
		dup := false
		for _, oe := range adj[:ei] {
			if oe.label == pe.label && oe.outgoing == pe.outgoing {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		need := 1
		if m.Mode == Isomorphism {
			need = 0
			for oi, oe := range adj {
				if oe.label != pe.label || oe.outgoing != pe.outgoing {
					continue
				}
				first := true
				for _, ee := range adj[:oi] {
					if ee.label == pe.label && ee.outgoing == pe.outgoing && ee.other == oe.other {
						first = false
						break
					}
				}
				if first {
					need++
				}
			}
		}
		req.counts = append(req.counts, labelCount{label: pe.label, outgoing: pe.outgoing, need: need})
	}
	return req
}

// structurePrune drops candidates that provably cannot embed: a required
// signature bit missing from the node's neighborhood proves a needed edge
// label absent (the signature is one-sided — set bits are inconclusive),
// and an edge count below the isomorphism-distinct-neighbor requirement
// proves an injective assignment impossible. Pruned candidates are counted
// in Stats.SigPruned. A missing self-loop edge is the one condition checked
// here alone: the backtracking search only checks edges between a node and
// the nodes assigned before it, so it never sees a node's edge to itself;
// everything else propagate and the search would reject later, at higher
// cost.
func (m *Matcher) structurePrune(p *plan, i int, cands []graph.NodeID) []graph.NodeID {
	req := m.structureReq(p, i)
	kept := cands[:0]
	for _, v := range cands {
		if m.structureAdmits(req, v) {
			kept = append(kept, v)
		} else {
			m.Stats.SigPruned++
		}
	}
	return kept
}

// structureAdmits reports whether v passes node requirement req.
func (m *Matcher) structureAdmits(req nodeReq, v graph.NodeID) bool {
	if req.sigOut&^m.sigOut.At(int(v)) != 0 || req.sigIn&^m.sigIn.At(int(v)) != 0 {
		return false
	}
	for _, c := range req.counts {
		if c.need > 1 && m.runLen(v, c.label, c.outgoing) < c.need {
			return false
		}
	}
	for _, l := range req.loops {
		if !m.G.HasEdge(v, v, l) {
			return false
		}
	}
	return true
}

// filteredCandidates returns the label's nodes filtered by lits, consulting
// the candidate cache when attached. Cached lists are immutable and the
// plan prunes its candidate slices in place, so a hit is copied into the
// plan arena, and on a miss the plan keeps the selected list while the
// cache gets a copy of its own (exactly sized: a scan selects into a
// buffer as large as the label).
func (m *Matcher) filteredCandidates(label string, lits []query.CompiledLiteral) []graph.NodeID {
	if m.Cache == nil {
		return m.selectCandidates(label, lits)
	}
	// The graph generation prefix ((lineage, version), see graph.GenKey)
	// makes a standalone cache safe across graphs and mutations, and keeps
	// an engine's lists apart from its answers and derived values: a base-36
	// run then ':' starts no AnswerKey and no Derived key.
	key := m.G.GenKey() + "\x02" + candKey(label, lits)
	if cached, ok := m.Cache.lookup(key); ok {
		return append(m.arenaIDs(len(cached)), cached...)
	}
	cands := m.selectCandidates(label, lits)
	m.Cache.keep(key, append([]graph.NodeID(nil), cands...))
	return cands
}

// indexScanCutoff is the inverse fraction of the label's population above
// which the narrowest index range stops paying: gathering k index entries
// costs k column reads plus a k·log k NodeID re-sort, so for wide ranges a
// straight scan (already in NodeID order) wins. BENCH.md records the
// measured crossover backing this constant: the index is ahead below ~10%
// selectivity and behind above ~25%, so ranges wider than a quarter of the
// label fall back to the scan.
const indexScanCutoff = 4

// selectCandidates picks the access path for one (label, literals) pair:
// the most selective sorted-index range when one is narrow enough, the
// linear label scan otherwise. Both paths return the identical list in
// ascending NodeID order.
func (m *Matcher) selectCandidates(label string, lits []query.CompiledLiteral) []graph.NodeID {
	base := m.G.NodesByLabel(label)
	if len(lits) == 0 {
		// Unconstrained node: the scan degenerates to a copy of the label
		// bucket (the counter still records it as a scan selection).
		m.Stats.ScanSelections++
		out := make([]graph.NodeID, len(base))
		copy(out, base)
		return out
	}
	if len(base) > 0 {
		if cands, ok := m.indexCandidates(base, label, lits); ok {
			m.Stats.IndexSelections++
			return cands
		}
	}
	m.Stats.ScanSelections++
	return m.scanCandidates(base, lits)
}

// scanCandidates is the linear label scan: the members of base, in its
// (ascending NodeID) order, that satisfy every literal.
func (m *Matcher) scanCandidates(base []graph.NodeID, lits []query.CompiledLiteral) []graph.NodeID {
	cands := make([]graph.NodeID, 0, len(base))
	if len(lits) == 1 {
		// Single-literal scans take the column-specialized compare.
		return m.G.AppendMatching(cands, base, lits[0].ID, lits[0].Op, lits[0].Value)
	}
	for _, v := range base {
		if nodeSatisfies(m.G, v, lits) {
			cands = append(cands, v)
		}
	}
	return cands
}

// indexCandidates resolves the literal set through the sorted attribute
// indexes: every literal's satisfying subrange is binary-searched, the
// narrowest range drives the gather, and the remaining literals verify
// against the columns. ok is false when no range is selective enough and
// the caller should fall back to the scan.
func (m *Matcher) indexCandidates(base []graph.NodeID, label string, lits []query.CompiledLiteral) ([]graph.NodeID, bool) {
	labelID := m.G.LookupLabel(label)
	best := -1
	var bestIx graph.SortedIndex
	bestLo, bestHi := 0, 0
	for i, l := range lits {
		ix := m.G.SortedIndex(labelID, l.ID)
		if !ix.Valid() {
			// The attribute never occurs on this label: every candidate
			// reads Null, so the literal is uniform — either it rejects
			// everything (provably empty result) or it filters nothing.
			// The empty slice (not nil) matches the scan path's result.
			if !l.Op.Apply(graph.Null, l.Value) {
				return []graph.NodeID{}, true
			}
			continue
		}
		lo, hi := ix.Range(l.Op, l.Value)
		if best < 0 || hi-lo < bestHi-bestLo {
			best, bestIx, bestLo, bestHi = i, ix, lo, hi
		}
	}
	if best < 0 {
		// Every literal is uniformly true for this label.
		out := make([]graph.NodeID, len(base))
		copy(out, base)
		return out, true
	}
	if (bestHi-bestLo)*indexScanCutoff > len(base) {
		return nil, false
	}
	out := make([]graph.NodeID, 0, bestHi-bestLo)
	for i := bestLo; i < bestHi; i++ {
		v := bestIx.At(i)
		ok := true
		for j, l := range lits {
			if j != best && !l.Matches(m.G, v) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, v)
		}
	}
	// The permutation is in value order; restore the ascending NodeID
	// order every other path produces.
	sortIDs(out)
	return out, true
}

// nodeSatisfies checks all compiled literals of a template node against v.
func nodeSatisfies(g *graph.Graph, v graph.NodeID, lits []query.CompiledLiteral) bool {
	for _, l := range lits {
		if !l.Matches(g, v) {
			return false
		}
	}
	return true
}

// propagate runs arc-consistency over the candidate bitsets: a candidate
// of u survives only if every incident active edge can be matched by some
// candidate of the neighbor. Each arc is revised by a reverse semijoin —
// the neighbor's candidates mark their adjacency-run endpoints in a
// scratch mask, then u's bitset is intersected against it word-at-a-time —
// so a whole candidate set is pruned at the cost of scanning the
// neighbor's edges once, instead of per-candidate neighborhood probes. A
// worklist re-revises only arcs whose source set shrank, starting from the
// nodes buildPlan marked (all of them without a seed); the fixpoint (the
// unique greatest arc-consistent subset) is the same one the per-candidate
// reference loop reaches. Returns false when a candidate set empties.
func (m *Matcher) propagate(p *plan) bool {
	n := len(p.nodes)
	// buildPlan sized the worklist and marked the first sweep's nodes.
	dirtyPrev, dirtyNext := m.dirtyPrev[:n], m.dirtyNext[:n]
	for first, sweep := true, true; sweep; first = false {
		sweep = false
		for i := 0; i < n; i++ {
			if len(p.adj[i]) == 0 {
				continue
			}
			shrunk := false
			for _, pe := range p.adj[i] {
				if !dirtyPrev[pe.other] && !(first && pe.fresh) {
					if first {
						m.Stats.ArcsInherited++
					}
					continue
				}
				m.Stats.ArcsRevised++
				// Revise in whichever direction is cheaper: the reverse
				// semijoin walks the neighbor's candidates once, the
				// forward probe walks this node's candidates with an
				// early-exit membership test. Both compute the identical
				// revision.
				var s, nonEmpty bool
				if len(p.cands[i]) < len(p.cands[pe.other]) {
					s, nonEmpty = m.probeArc(p, i, pe)
				} else {
					s, nonEmpty = m.reviseArc(p, i, pe)
				}
				if !nonEmpty {
					return false
				}
				shrunk = shrunk || s
			}
			if shrunk {
				// Rebuild the slice form in place from the surviving bits.
				kept := p.cands[i][:0]
				for _, v := range p.cands[i] {
					if p.candBits[i].Get(int(uint32(m.labelPos.At(int(v))))) {
						kept = append(kept, v)
					}
				}
				p.cands[i] = kept
				dirtyNext[i] = true
				sweep = true
			}
		}
		dirtyPrev, dirtyNext = dirtyNext, dirtyPrev
		clear(dirtyNext)
	}
	return true
}

// expandNew starts the pending nodes of a seeded plan — active in q but not
// in the seed's instance, which had the edge variable in front of them off —
// from the neighbors of a node that has its candidates already, not from
// their label's population: the set is what revising the arc from that
// neighbor would leave of the label-and-literal set, so the fixpoint is
// unchanged, and the label-sized list is never built. Every pending node is
// connected to the seed's component through active edges, so each round
// places at least one. It reports false when a set comes out empty.
func (m *Matcher) expandNew(p *plan, pending int) bool {
	for pending > 0 {
		placed := 0
		for i, ni := range p.nodes {
			if p.cands[i] != nil {
				continue
			}
			from := -1 // the incident edge whose far side has the fewest candidates
			for k, pe := range p.adj[i] {
				if c := p.cands[pe.other]; c != nil && (from < 0 || len(c) < len(p.cands[p.adj[i][from].other])) {
					from = k
				}
			}
			if from < 0 {
				continue
			}
			base := m.G.NodesByLabelID(p.labels[i])
			set := m.arenaBitset(len(base))
			m.markSupport(set.Words(), p, i, p.adj[i][from])
			lits, req := p.q.CompiledLiterals(m.G, ni), m.structureReq(p, i)
			cands := m.arenaIDs(set.Count())
			for wi, w := range set.Words() {
				for ; w != 0; w &= w - 1 {
					pos := wi<<6 + bits.TrailingZeros64(w)
					switch v := base[pos]; {
					case !nodeSatisfies(m.G, v, lits):
						set.Clear(pos)
					case !m.structureAdmits(req, v):
						set.Clear(pos)
						m.Stats.SigPruned++
					default:
						cands = append(cands, v)
					}
				}
			}
			if len(cands) == 0 {
				return false
			}
			p.cands[i], p.candBits[i] = cands, set
			p.adj[i][from].fresh = false // the expansion was this arc's revision
			placed++
		}
		if placed == 0 {
			panic("match: an active node is not connected to the seeded plan")
		}
		pending -= placed
	}
	return true
}

// markSupport sets, in mask (label-local positions of plan node i's label),
// every node of that label with a pe-matching edge into the current
// candidate set of pe.other: the neighbor's candidates mark their
// adjacency-run endpoints.
func (m *Matcher) markSupport(mask []uint64, p *plan, i int, pe planEdge) {
	lbl, lpos := p.labels[i], &m.labelPos
	// The arc's edges seen from the neighbor side: flip the direction.
	adj, runs := &m.outAdj, &m.outRuns
	if pe.outgoing {
		adj, runs = &m.inAdj, &m.inRuns
	}
	if runs.Valid() {
		// Run lookup on the captured tables — this is the propagation kernel.
		for _, w := range p.cands[pe.other] {
			lo, hi := runs.Span(w, pe.label)
			for _, e := range adj.At(int(w))[lo:hi] {
				lp := lpos.At(int(e.To))
				if graph.LabelID(lp>>32) == lbl {
					mask[uint32(lp)>>6] |= 1 << (uint32(lp) & 63)
				}
			}
		}
		return
	}
	for _, w := range p.cands[pe.other] {
		for _, e := range m.G.EdgeRun(w, pe.label, !pe.outgoing) {
			lp := lpos.At(int(e.To))
			if graph.LabelID(lp>>32) == lbl {
				mask[uint32(lp)>>6] |= 1 << (uint32(lp) & 63)
			}
		}
	}
}

// reviseArc prunes plan node i's candidates to those with a pe-matching
// edge into the current candidate set of pe.other. It reports whether the
// set shrank and whether it remains non-empty.
func (m *Matcher) reviseArc(p *plan, i int, pe planEdge) (shrunk, nonEmpty bool) {
	words := p.candBits[i].Words()
	if cap(m.scratch) < len(words) {
		m.scratch = make([]uint64, len(words))
	}
	scratch := m.scratch[:len(words)]
	clear(scratch)
	m.markSupport(scratch, p, i, pe)
	for k := range words {
		masked := words[k] & scratch[k]
		if masked != words[k] {
			shrunk = true
			words[k] = masked
		}
		if masked != 0 {
			nonEmpty = true
		}
	}
	return shrunk, nonEmpty
}

// probeArc is reviseArc with the loop inverted: each candidate of i scans
// its own pe-run for an endpoint inside pe.other's candidate set. Cheaper
// than the semijoin when i's set is the smaller side.
func (m *Matcher) probeArc(p *plan, i int, pe planEdge) (shrunk, nonEmpty bool) {
	bits := p.candBits[i]
	adj, runs := &m.inAdj, &m.inRuns
	if pe.outgoing {
		adj, runs = &m.outAdj, &m.outRuns
	}
	for _, v := range p.cands[i] {
		es := adj.At(int(v))
		if runs.Valid() {
			lo, hi := runs.Span(v, pe.label)
			es = es[lo:hi]
		} else {
			es = m.G.EdgeRun(v, pe.label, pe.outgoing)
		}
		ok := false
		for _, e := range es {
			if p.inSet(pe.other, m.labelPos.At(int(e.To))) {
				ok = true
				break
			}
		}
		if ok {
			nonEmpty = true
		} else {
			bits.Clear(int(uint32(m.labelPos.At(int(v)))))
			shrunk = true
		}
	}
	return shrunk, nonEmpty
}

// cancelCheckMask throttles context polling to one check per 256 expanded
// search-tree nodes: frequent enough for prompt deadline aborts, rare
// enough to keep the uncancellable hot path unaffected.
const cancelCheckMask = 255

// BindContext attaches a cancellation context to subsequent evaluations and
// clears any prior abort: the backtracking search polls it (throttled by
// cancelCheckMask) and unwinds when it fires, leaving Aborted set. A nil ctx
// disables polling. Engine binds every evaluation's context here.
func (m *Matcher) BindContext(ctx context.Context) { m.ctx, m.aborted = ctx, false }

// Aborted reports whether the last evaluation was cut short by context
// cancellation; an aborted evaluation's result is partial and must be
// discarded.
func (m *Matcher) Aborted() bool { return m.aborted }

// embedAll returns, sorted, the candidates of p's pinned node that extend to
// a full matching, gathered in the plan arena and copied out at their size;
// nil, with Aborted set, once the bound context fires.
func (m *Matcher) embedAll(p *plan, cands []graph.NodeID) []graph.NodeID {
	matched := m.arenaIDs(len(cands))
	for _, v := range cands {
		if m.aborted || m.ctx != nil && m.ctx.Err() != nil {
			m.aborted = true
			return nil
		}
		m.Stats.CandidatesChecked++
		if m.embedFrom(p, v) {
			matched = append(matched, v)
		}
	}
	// cands is ascending, so the appends usually are too; sortIDs is a
	// linear verification with a sort fallback for unsorted within-sets.
	sortIDs(matched)
	return append([]graph.NodeID(nil), matched...)
}

// embedFrom checks whether a full matching exists with the pinned node
// mapped to v.
func (m *Matcher) embedFrom(p *plan, v graph.NodeID) bool {
	if cap(m.assign) < len(p.nodes) {
		m.assign = make([]graph.NodeID, len(p.nodes))
	}
	m.assign = m.assign[:len(p.nodes)]
	for i := range m.assign {
		m.assign[i] = graph.InvalidNode
	}
	m.assign[p.rootIdx] = v
	if p.adjMask != nil {
		m.assignedMask = 1 << uint(p.rootIdx)
		m.reachMask = p.adjMask[p.rootIdx]
	}
	if m.Mode == Isomorphism {
		m.usedSet(v)
	}
	m.nodesLeft = m.MaxBacktrackNodes
	m.exhausted = false
	ok := m.extend(p, 1)
	// extend unwinds its own assignments (also on success), so clearing the
	// root restores the scratch for the next candidate.
	if m.Mode == Isomorphism {
		m.usedClear(v)
	}
	return ok
}

// extend recursively assigns the remaining plan nodes, depth counting how
// many are assigned already. The per-candidate budget is explicit matcher
// state: nodesLeft counts expansions remaining and exhausted marks the
// bound tripping, so a budget of 1 admits exactly one expansion instead of
// colliding with the 0 = unbounded sentinel.
func (m *Matcher) extend(p *plan, depth int) bool {
	if depth == len(p.nodes) {
		return true
	}
	if m.aborted {
		return false
	}
	// Count the node only after the abort check: an unwinding search must
	// not inflate the counter with nodes it never actually expanded.
	m.Stats.BacktrackNodes++
	if m.ctx != nil && m.Stats.BacktrackNodes&cancelCheckMask == 0 {
		select {
		case <-m.ctx.Done():
			// Unwind the whole search: every ancestor sees aborted and
			// stops trying siblings, so the abort propagates in O(depth).
			m.aborted = true
			return false
		default:
		}
	}
	if m.MaxBacktrackNodes != 0 {
		if m.nodesLeft == 0 {
			m.exhausted = true
			return false
		}
		m.nodesLeft--
	}

	ui, pivot, pivotAt, pivotEdge := m.pickNext(p)

	found := false
	if pivot != graph.InvalidNode {
		// Generate candidates from the pivot's adjacency run: every entry
		// already satisfies the pivot edge, so consistent skips it. Runs
		// are sorted by endpoint, letting multigraph parallel edges dedup
		// by adjacency. When the run dwarfs the candidate list, gallop the
		// other way: walk the (sorted) candidates and binary-search each in
		// the run — both directions enumerate the same ascending sequence.
		run := m.G.EdgeRun(pivot, pivotEdge.label, pivotEdge.outgoing)
		if len(p.cands[ui])*8 < len(run) {
			for _, v := range p.cands[ui] {
				if !runContains(run, v) {
					continue
				}
				if m.try(p, depth, ui, v, pivotAt) {
					found = true
					break
				}
				if m.exhausted || m.aborted {
					break
				}
			}
			return found
		}
		var last graph.NodeID = graph.InvalidNode
		for _, e := range run {
			if e.To == last {
				continue
			}
			last = e.To
			if m.try(p, depth, ui, e.To, pivotAt) {
				found = true
				break
			}
			if m.exhausted || m.aborted {
				break
			}
		}
	} else {
		for _, v := range p.cands[ui] {
			if m.try(p, depth, ui, v, -1) {
				found = true
				break
			}
			if m.exhausted || m.aborted {
				break
			}
		}
	}
	return found
}

// pickNext chooses the next node to assign under dynamic ordering: among
// unassigned nodes with an assigned neighbor, the one whose candidate
// supply is cheapest right now — the smaller of its filtered candidate
// count and the shortest adjacency run offered by an assigned neighbor
// (live counts; the filtered counts already encode literal selectivity).
// Ties break toward the lowest plan index so the choice is deterministic.
// It returns the chosen node and its cheapest assigned-neighbor pivot
// (InvalidNode when the remainder is disconnected, falling back to the
// lowest unassigned node).
func (m *Matcher) pickNext(p *plan) (ui int, pivot graph.NodeID, pivotAt int, pivotEdge planEdge) {
	bestNode, bestCost := -1, int(^uint(0)>>1)
	var bestPivot graph.NodeID = graph.InvalidNode
	bestAt := -1
	var bestEdge planEdge
	if p.adjMask != nil {
		// Mask fast path: the frontier is unassigned nodes adjacent to the
		// assigned prefix, read straight off the masks; only those nodes'
		// edge lists are scanned. Bit order is ascending plan index, so the
		// tie-break matches the full scan below.
		frontier := m.reachMask &^ m.assignedMask
		if frontier == 0 {
			// Disconnected remainder; should not happen for projected
			// instances, but fall back to the lowest unassigned node.
			return bits.TrailingZeros64(p.fullMask &^ m.assignedMask),
				graph.InvalidNode, -1, planEdge{}
		}
		for f := frontier; f != 0; f &= f - 1 {
			i := bits.TrailingZeros64(f)
			pv, pvAt, pvLen, pvEdge := m.cheapestPivot(p, i)
			cost := len(p.cands[i])
			if pvLen < cost {
				cost = pvLen
			}
			if cost < bestCost {
				bestNode, bestCost = i, cost
				bestPivot, bestAt, bestEdge = pv, pvAt, pvEdge
				if cost == 0 {
					break // an empty pivot run: this branch fails right away
				}
			}
		}
		return bestNode, bestPivot, bestAt, bestEdge
	}
	firstUnassigned := -1
	for i := range p.nodes {
		if m.assign[i] != graph.InvalidNode {
			continue
		}
		if firstUnassigned < 0 {
			firstUnassigned = i
		}
		pv, pvAt, pvLen, pvEdge := m.cheapestPivot(p, i)
		if pv == graph.InvalidNode {
			continue // not adjacent to the assigned prefix
		}
		cost := len(p.cands[i])
		if pvLen < cost {
			cost = pvLen
		}
		if cost < bestCost {
			bestNode, bestCost = i, cost
			bestPivot, bestAt, bestEdge = pv, pvAt, pvEdge
		}
	}
	if bestNode < 0 {
		// Disconnected remainder; see above.
		return firstUnassigned, graph.InvalidNode, -1, planEdge{}
	}
	return bestNode, bestPivot, bestAt, bestEdge
}

// cheapestPivot returns node i's cheapest assigned-neighbor pivot: the
// assigned neighbor whose adjacency run toward i is shortest, with the run
// length and the (flipped) generator edge. pv is InvalidNode when i has no
// assigned neighbor.
func (m *Matcher) cheapestPivot(p *plan, i int) (pv graph.NodeID, pvAt, pvLen int, pvEdge planEdge) {
	pv, pvAt = graph.InvalidNode, -1
	for ei, pe := range p.adj[i] {
		w := m.assign[pe.other]
		if w == graph.InvalidNode {
			continue
		}
		l := m.runLen(w, pe.label, !pe.outgoing)
		if pv == graph.InvalidNode || l < pvLen {
			pv, pvAt, pvLen = w, ei, l
			pvEdge = planEdge{other: i, label: pe.label, outgoing: !pe.outgoing}
		}
	}
	return pv, pvAt, pvLen, pvEdge
}

// try attempts assigning plan node ui to v and recursing. skipEdge is the
// index into p.adj[ui] of the pivot edge the candidate was generated from
// (already satisfied by construction), or -1.
func (m *Matcher) try(p *plan, depth, ui int, v graph.NodeID, skipEdge int) bool {
	if m.Mode == Isomorphism && m.usedGet(v) {
		return false
	}
	// A candidate drawn from p.cands[ui] itself (skipEdge < 0) is a member
	// by construction; pivot-generated candidates must pass the bitset.
	if skipEdge >= 0 && !p.inSet(ui, m.labelPos.At(int(v))) {
		return false
	}
	if !m.consistent(p, ui, v, skipEdge) {
		return false
	}
	m.assign[ui] = v
	savedReach := m.reachMask
	if p.adjMask != nil {
		m.assignedMask |= 1 << uint(ui)
		m.reachMask |= p.adjMask[ui]
	}
	if m.Mode == Isomorphism {
		m.usedSet(v)
	}
	found := m.extend(p, depth+1)
	m.assign[ui] = graph.InvalidNode
	if p.adjMask != nil {
		m.assignedMask &^= 1 << uint(ui)
		m.reachMask = savedReach
	}
	if m.Mode == Isomorphism {
		m.usedClear(v)
	}
	return found
}

// runContains binary-searches a label run (sorted by endpoint) for an edge
// to v — one step of the galloping run-∩-candidates intersection.
func runContains(run []graph.Edge, v graph.NodeID) bool {
	i := sort.Search(len(run), func(k int) bool { return run[k].To >= v })
	return i < len(run) && run[i].To == v
}

// consistent checks every active edge between ui and already-assigned
// nodes, except the skipEdge the candidate was generated from.
func (m *Matcher) consistent(p *plan, ui int, v graph.NodeID, skipEdge int) bool {
	for ei, pe := range p.adj[ui] {
		if ei == skipEdge {
			continue
		}
		w := m.assign[pe.other]
		if w == graph.InvalidNode {
			continue
		}
		if pe.outgoing {
			if !m.G.HasEdge(v, w, pe.label) {
				return false
			}
		} else {
			if !m.G.HasEdge(w, v, pe.label) {
				return false
			}
		}
	}
	return true
}
