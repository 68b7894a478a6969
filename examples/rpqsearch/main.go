// Command rpqsearch demonstrates the regular-path-query extension (the
// paper's stated future-work query class): over a citation graph it
// generates RPQ instances — "papers reachable from recent papers via
// bounded citation/authorship paths" — whose answers balance topic
// coverage against diversity.
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	"fairsqg"
)

func main() {
	nodes := flag.Int("nodes", 8000, "synthetic citation-graph size")
	seed := flag.Int64("seed", 5, "generation seed")
	want := flag.Int("cover", 15, "required papers per topic group")
	flag.Parse()

	g, err := fairsqg.BuildDataset(fairsqg.DatasetCite, fairsqg.DatasetOptions{Nodes: *nodes, Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("citation graph: %s\n\n", fairsqg.SummarizeGraph(g))

	// Papers reachable from recent well-cited papers by following either a
	// direct citation or a citation chain; the alternation branches and the
	// hop bound are generation parameters.
	expr, err := fairsqg.ParsePathExpr("cites|cites/cites")
	if err != nil {
		log.Fatal(err)
	}
	tpl, err := fairsqg.NewRPQTemplate("influence", "Paper", expr, []int{6, 4, 2, 1})
	if err != nil {
		log.Fatal(err)
	}
	tpl.AddVar("minYear", "year", fairsqg.OpGE)
	tpl.AddVar("minCites", "numberOfCitations", fairsqg.OpGE)
	if err := tpl.BindDomains(g, 6); err != nil {
		log.Fatal(err)
	}
	// Cover the two largest topic groups.
	all := fairsqg.GroupsByAttribute(g, "Paper", "topic")
	sort.Slice(all, func(i, j int) bool { return all[i].Size() > all[j].Size() })
	set := fairsqg.EqualOpportunity(all[:2], *want)

	// From here on it is the subgraph templates' stack: the RPQ is lowered to
	// a Config and runs on the same Generator.
	cfg, err := fairsqg.NewRPQConfig(g, tpl)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Groups, cfg.Eps = set, 0.1
	// Both attributes sum exactly by column, so δ takes no pair sample
	// however many thousands of papers an answer holds.
	cfg.DistanceAttrs = []string{"topic", "numberOfCitations"}
	fmt.Printf("RPQ template: sources Paper, path %s, bounds %v, space %d instances\n\n",
		expr, tpl.Bounds, cfg.Template.InstanceSpaceSize())
	fmt.Printf("groups: %s (%d), %s (%d); c=%d each\n\n",
		set[0].Name, set[0].Size(), set[1].Name, set[1].Size(), *want)

	gen, err := fairsqg.NewGenerator(cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := gen.Refine()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d RPQ suggestions in %v (verified %d, pruned %d):\n\n",
		len(res.Set), res.Elapsed.Round(1000000), res.Stats.Verified, res.Stats.Pruned)
	for i, v := range res.Set {
		counts := set.Count(v.Matches)
		fmt.Printf("q%d: %s\n", i+1, tpl.Describe(v.Q.I))
		fmt.Printf("    %d papers (%d/%d per topic), diversity %.2f, coverage %.0f\n\n",
			len(v.Matches), counts[0], counts[1], v.Point.Div, v.Point.Cov)
	}
}
