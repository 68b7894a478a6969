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
