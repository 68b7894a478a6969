package graph

import (
	"fmt"
	"sort"
	"strings"
)

// Stats summarizes a frozen graph; it backs the Table II "dataset overview"
// experiment and the graphgen CLI output.
type Stats struct {
	Nodes        int
	Edges        int
	NodeLabels   int
	EdgeLabels   int
	AvgAttrs     float64
	AvgOutDegree float64
	MaxOutDegree int
	MaxInDegree  int
	MaxAdom      int
	TopLabels    []LabelCount
}

// LabelCount pairs a node label with its population.
type LabelCount struct {
	Label string
	Count int
}

// Summarize computes Stats for a frozen graph.
func Summarize(g *Graph) Stats {
	g.mustFrozen("Summarize")
	s := Stats{Nodes: g.NumNodes(), Edges: g.NumEdges()}
	totalAttrs := 0
	for i := range g.cols {
		totalAttrs += g.cols[i].count
	}
	if s.Nodes > 0 {
		s.AvgAttrs = float64(totalAttrs) / float64(s.Nodes)
		s.AvgOutDegree = float64(s.Edges) / float64(s.Nodes)
	}
	s.MaxOutDegree = g.maxOutDeg
	s.MaxInDegree = g.maxInDeg
	s.MaxAdom = g.MaxActiveDomain()
	edgeLabels := map[LabelID]bool{}
	for i := 0; i < s.Nodes; i++ {
		for _, e := range g.Out(NodeID(i)) {
			edgeLabels[e.Label] = true
		}
	}
	s.EdgeLabels = len(edgeLabels)
	s.NodeLabels = len(g.byLabel)
	for id, vs := range g.byLabel {
		s.TopLabels = append(s.TopLabels, LabelCount{Label: g.labels[id], Count: len(vs)})
	}
	sort.Slice(s.TopLabels, func(i, j int) bool {
		if s.TopLabels[i].Count != s.TopLabels[j].Count {
			return s.TopLabels[i].Count > s.TopLabels[j].Count
		}
		return s.TopLabels[i].Label < s.TopLabels[j].Label
	})
	if len(s.TopLabels) > 8 {
		s.TopLabels = s.TopLabels[:8]
	}
	return s
}

// String renders the stats as a one-line report.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "|V|=%d |E|=%d nodeLabels=%d edgeLabels=%d avgAttrs=%.1f avgOutDeg=%.2f maxAdom=%d",
		s.Nodes, s.Edges, s.NodeLabels, s.EdgeLabels, s.AvgAttrs, s.AvgOutDegree, s.MaxAdom)
	return b.String()
}

// Neighborhood walks d-hop balls around seed sets. It implements the G_q^d
// structure of the Spawn template-refinement optimization (Section IV-A):
// the nodes within d hops of the current match set. The seen-set and the
// BFS queue are reused from walk to walk, so a warm walker allocates
// nothing; it serves one goroutine. The zero value is ready to use.
type Neighborhood struct {
	// seen is a bitset over NodeIDs, all-zero between walks.
	seen []uint64
	// nodes is the walk in visiting order; its tail is the BFS frontier.
	nodes []NodeID
}

// Visit calls stop on every node within d hops (ignoring edge direction)
// of any seed, each once, seeds first and then hop by hop, until stop
// returns true. It returns the number of nodes visited.
func (h *Neighborhood) Visit(g *Graph, seeds []NodeID, d int, stop func(NodeID) bool) int {
	if need := (g.NumNodes() + 63) / 64; len(h.seen) < need {
		h.seen = make([]uint64, need)
	}
	h.nodes = walk(g, seeds, d, stop, h.seen, h.nodes[:0])
	// Clear what was visited, so the cost follows the walk and not the
	// graph — unless the walk is the larger of the two.
	if len(h.nodes) >= len(h.seen) {
		clear(h.seen)
	} else {
		for _, v := range h.nodes {
			h.seen[v>>6] = 0
		}
	}
	return len(h.nodes)
}

// walk appends to nodes what it visits, marked in seen, and returns it.
func walk(g *Graph, seeds []NodeID, d int, stop func(NodeID) bool, seen []uint64, nodes []NodeID) []NodeID {
	for _, v := range seeds {
		if w, b := &seen[v>>6], uint64(1)<<(uint(v)&63); *w&b == 0 {
			*w |= b
			if nodes = append(nodes, v); stop(v) {
				return nodes
			}
		}
	}
	for hop, lo := 0, 0; hop < d && lo < len(nodes); hop++ {
		hi := len(nodes)
		for _, v := range nodes[lo:hi] {
			for _, es := range [2][]Edge{g.Out(v), g.In(v)} {
				for _, e := range es {
					if w, b := &seen[e.To>>6], uint64(1)<<(uint(e.To)&63); *w&b == 0 {
						*w |= b
						if nodes = append(nodes, e.To); stop(e.To) {
							return nodes
						}
					}
				}
			}
		}
		lo = hi
	}
	return nodes
}
