package fairsqg_test

import (
	"fmt"
	"log"

	"fairsqg"
)

// buildExampleGraph assembles a deterministic six-person network used by
// the runnable documentation examples.
func buildExampleGraph() *fairsqg.Graph {
	g := fairsqg.NewGraph()
	people := []struct {
		title, gender string
		exp           int64
	}{
		{"Director", "female", 15},
		{"Director", "male", 11},
		{"Engineer", "female", 12},
		{"Engineer", "male", 6},
		{"Manager", "female", 20},
		{"Analyst", "male", 3},
	}
	for _, p := range people {
		g.AddNode("Person", map[string]fairsqg.Value{
			"title":      fairsqg.Str(p.title),
			"gender":     fairsqg.Str(p.gender),
			"yearsOfExp": fairsqg.Int(p.exp),
		})
	}
	edges := [][2]int{{2, 0}, {2, 1}, {3, 1}, {4, 0}, {5, 1}}
	for _, e := range edges {
		if err := g.AddEdge(fairsqg.NodeID(e[0]), fairsqg.NodeID(e[1]), "recommend"); err != nil {
			log.Fatal(err)
		}
	}
	g.Freeze()
	return g
}

// ExampleParseTemplate shows the template DSL round trip.
func ExampleParseTemplate() {
	tpl, err := fairsqg.ParseTemplate(`
template demo
node u_o Person title = "Director"
node u1 Person yearsOfExp >= $exp
edge u1 u_o recommend ?rec
ladder $exp 5 10 15
output u_o
`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("template %s: %d nodes, %d range vars, %d edge vars, %d instances\n",
		tpl.Name, len(tpl.Nodes), tpl.NumRangeVars(), tpl.NumEdgeVars(), tpl.InstanceSpaceSize())
	// Output:
	// template demo: 2 nodes, 1 range vars, 1 edge vars, 8 instances
}

// ExampleGenerator demonstrates end-to-end query generation with an
// equal-opportunity constraint over gender groups.
func ExampleGenerator() {
	g := buildExampleGraph()
	tpl, err := fairsqg.ParseTemplate(`
template talent
node u_o Person title = "Director"
node u1 Person yearsOfExp >= $exp
edge u1 u_o recommend ?rec
ladder $exp 6 12 20
output u_o
`)
	if err != nil {
		log.Fatal(err)
	}
	set := fairsqg.EqualOpportunity(
		fairsqg.GroupsByAttribute(g, "Person", "gender"), 1)

	gen, err := fairsqg.NewGenerator(&fairsqg.Config{
		G: g, Template: tpl, Groups: set, Eps: 0.25,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := gen.Bidirectional()
	if err != nil {
		log.Fatal(err)
	}
	for _, v := range res.Set {
		fmt.Printf("%s -> %d answers, coverage %.0f\n", v.Q, len(v.Matches), v.Point.Cov)
	}
	// Output:
	// talent{exp=_, rec=0} -> 2 answers, coverage 2
}

// ExampleAnswer evaluates a single instance directly.
func ExampleAnswer() {
	g := buildExampleGraph()
	tpl, err := fairsqg.ParseTemplate(`
template q
node u_o Person title = "Director"
node u1 Person yearsOfExp >= $exp
edge u1 u_o recommend
ladder $exp 6 12 20
output u_o
`)
	if err != nil {
		log.Fatal(err)
	}
	// Bind $exp to ladder level 1 (>= 12): only person 2 (exp 12) and 4
	// (exp 20) recommend, reaching both directors.
	inst, err := fairsqg.MakeInstance(tpl, fairsqg.Instantiation{1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(fairsqg.Answer(g, inst))
	// Output:
	// [0 1]
}

// ExampleMatchSettings selects the matching semantics by name. The template
// asks for two senior recommenders; under isomorphism they must be two
// people, under homomorphism one person may fill both nodes.
func ExampleMatchSettings() {
	g := buildExampleGraph()
	tpl, err := fairsqg.ParseTemplate(`
template pair
node u_o Person title = "Director"
node u1 Person yearsOfExp >= 12
node u2 Person yearsOfExp >= 12
edge u1 u_o recommend
edge u2 u_o recommend
output u_o
`)
	if err != nil {
		log.Fatal(err)
	}
	for _, mode := range []fairsqg.MatchSettings{{Mode: fairsqg.Isomorphism}, {Mode: fairsqg.Homomorphism}} {
		gen, err := fairsqg.NewGenerator(&fairsqg.Config{
			G: g, Template: tpl, Eps: 0.25, Settings: mode,
			Groups: fairsqg.EqualOpportunity(fairsqg.GroupsByAttribute(g, "Person", "gender"), 0),
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := gen.AllFeasible()
		if err != nil {
			log.Fatal(err)
		}
		for _, v := range res {
			fmt.Printf("homomorphism %t: directors %v\n", mode.Mode == fairsqg.Homomorphism, v.Matches)
		}
	}
	// Output:
	// homomorphism false: directors [0]
	// homomorphism true: directors [0 1]
}
