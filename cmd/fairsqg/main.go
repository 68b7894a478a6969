// Command fairsqg generates subgraph queries with fairness and diversity
// guarantees from the command line: load or synthesize a graph, supply a
// query template (DSL file or a built-in one), declare the groups to
// cover, pick an algorithm, and get an ε-Pareto set of query suggestions.
//
// Examples:
//
//	# talent search on a synthetic professional network
//	fairsqg -dataset lki -nodes 12000 -canon talent \
//	        -group-label Person -group-attr gender -cover 40 -alg bi
//
//	# custom graph + template, online workload generation
//	fairsqg -graph g.tsv -template q.tpl \
//	        -group-label Movie -group-attr genre -values Romance,Horror \
//	        -cover 50 -alg online -k 10 -w 40 -stream 500
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"fairsqg"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fairsqg: ")

	graphFile := flag.String("graph", "", "graph file (.tsv, .json or .fsnap snapshot); empty = use -dataset")
	dataset := flag.String("dataset", "lki", "synthetic dataset when no -graph: dbp, lki or cite")
	nodes := flag.Int("nodes", 0, "synthetic dataset size (0 = default)")
	seed := flag.Int64("seed", 1, "synthetic generation seed")

	templateFile := flag.String("template", "", "template file in the DSL; empty = use -canon")
	canon := flag.String("canon", "talent", "built-in template: talent, movie or paper")
	maxDomain := flag.Int("max-domain", 8, "cap per range-variable value ladder")

	groupLabel := flag.String("group-label", "Person", "node label the groups partition")
	groupAttr := flag.String("group-attr", "gender", "attribute inducing the groups")
	values := flag.String("values", "", "comma-separated group values (empty = all)")
	cover := flag.Int("cover", 20, "coverage constraint per group (equal opportunity)")
	totalC := flag.Int("total", 0, "total coverage budget split evenly (overrides -cover)")

	batchAlgs := fairsqg.Algorithms()
	algNames := strings.Join(batchAlgs, ", ") + " or online"
	alg := flag.String("alg", "bi", "algorithm: "+algNames)
	eps := flag.Float64("eps", 0.05, "ε-dominance tolerance")
	lambda := flag.Float64("lambda", 0.5, "relevance/dissimilarity balance λ in [0,1] (0 = pure relevance)")
	maxPairs := flag.Int("max-pairs", 20000, "pairwise diversity sample cap on free-text attributes (<0 = exact, no cap); the others are exact")
	distAttrs := flag.String("dist-attrs", "", "comma-separated attributes for the diversity distance")

	k := flag.Int("k", 10, "online: result size to maintain")
	w := flag.Int("w", 40, "online: sliding-window size")
	streamLen := flag.Int("stream", 300, "online: instances to stream")

	verbose := flag.Bool("v", false, "print full query descriptions and answers")
	mutations := flag.String("mutations", "", "apply this JSON mutation batch to the loaded graph before anything else (same wire form as the server's mutate endpoint)")
	save := flag.String("save", "", "write the generated workload as JSON to this file")
	saveSnapshot := flag.String("save-snapshot", "", "write the loaded graph as a binary snapshot to this file and exit (offline conversion for warm loads)")
	flag.Parse()

	// Reject nonsense flag values up front: the generators and binders
	// would otherwise silently substitute defaults.
	if *nodes < 0 {
		log.Fatalf("-nodes must be non-negative, got %d", *nodes)
	}
	if *maxDomain < 1 {
		log.Fatalf("-max-domain must be at least 1, got %d", *maxDomain)
	}
	if *cover < 0 {
		log.Fatalf("-cover must be non-negative, got %d", *cover)
	}
	if *totalC < 0 {
		log.Fatalf("-total must be non-negative, got %d", *totalC)
	}
	if *alg != "online" && !slices.Contains(batchAlgs, *alg) {
		log.Fatalf("unknown algorithm %q (want %s)", *alg, algNames)
	}
	if *alg == "online" && (*k < 1 || *w < 1 || *streamLen < 1) {
		log.Fatalf("online mode needs positive -k, -w and -stream (got %d, %d, %d)", *k, *w, *streamLen)
	}
	if flag.NArg() > 0 {
		log.Fatalf("unexpected arguments: %v", flag.Args())
	}

	g, err := loadGraph(*graphFile, *dataset, *nodes, *seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "graph: %s\n", fairsqg.SummarizeGraph(g))

	if *mutations != "" {
		data, err := os.ReadFile(*mutations)
		if err != nil {
			log.Fatalf("-mutations: %v", err)
		}
		ops, err := fairsqg.DecodeMutations(data)
		if err != nil {
			log.Fatalf("-mutations: %v", err)
		}
		mg, res, err := fairsqg.ApplyMutations(g, ops)
		if err != nil {
			log.Fatalf("-mutations: %v", err)
		}
		g = mg
		fmt.Fprintf(os.Stderr, "mutations: %d ops applied (version %d): %s\n",
			res.Ops, res.Version, fairsqg.SummarizeGraph(g))
	}

	if *saveSnapshot != "" {
		if err := saveTo(*saveSnapshot, func(w *os.File) error {
			return fairsqg.WriteGraphSnapshot(w, g)
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "snapshot written to %s\n", *saveSnapshot)
		return
	}

	tpl, err := loadTemplate(*templateFile, *canon)
	if err != nil {
		log.Fatal(err)
	}
	if err := tpl.BindMissingDomains(g, fairsqg.DomainOptions{MaxValues: *maxDomain}); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "template %s: |Q|=%d |X_L|=%d |X_E|=%d, instance space %d\n",
		tpl.Name, len(tpl.Edges), tpl.NumRangeVars(), tpl.NumEdgeVars(), tpl.InstanceSpaceSize())

	var set fairsqg.Groups
	if *values != "" {
		set = fairsqg.GroupsByValues(g, *groupLabel, *groupAttr, strings.Split(*values, ",")...)
	} else {
		set = fairsqg.GroupsByAttribute(g, *groupLabel, *groupAttr)
	}
	if len(set) == 0 {
		log.Fatalf("no groups for %s.%s", *groupLabel, *groupAttr)
	}
	if *totalC > 0 {
		set = fairsqg.SplitCoverageEvenly(set, *totalC)
	} else {
		set = fairsqg.EqualOpportunity(set, *cover)
	}
	for _, gr := range set {
		fmt.Fprintf(os.Stderr, "group %s: %d members, cover %d\n", gr.Name, gr.Size(), gr.Want)
	}

	cfg := &fairsqg.Config{
		G: g, Template: tpl, Groups: set, Eps: *eps, MaxPairs: *maxPairs,
		Lambda: *lambda, LambdaSet: true,
	}
	if *distAttrs != "" {
		cfg.DistanceAttrs = strings.Split(*distAttrs, ",")
	}
	generator, err := fairsqg.NewGenerator(cfg)
	if err != nil {
		log.Fatal(err)
	}

	if *alg == "online" {
		res, err := generator.Online(
			fairsqg.NewRandomStream(tpl, *streamLen, *seed+1),
			fairsqg.OnlineOptions{K: *k, Window: *w})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "online: processed %d, final ε=%.4f\n", res.Processed, res.Eps)
		printWork(res.Stats)
		printSet(g, res.Set, *verbose)
		if *save != "" {
			if err := saveTo(*save, func(w *os.File) error {
				return fairsqg.SaveOnlineWorkload(w, tpl, res)
			}); err != nil {
				log.Fatal(err)
			}
		}
		return
	}

	res, err := generator.Run(*alg, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "%s: %d suggestions in %v; verified %d, pruned %d, feasible %d\n",
		*alg, len(res.Set), res.Elapsed.Round(1000000),
		res.Stats.Verified, res.Stats.Pruned, res.Stats.Feasible)
	if cs := res.Stats.Cache; cs.Hits+cs.Misses > 0 {
		fmt.Fprintf(os.Stderr, "cand-cache: %d hits / %d misses (store: %d evictions, %d entries)\n",
			cs.Hits, cs.Misses, cs.Evictions, cs.Entries)
	}
	printWork(res.Stats)
	if ds := res.Stats.DistCache; ds.Evals > 0 {
		fmt.Fprintf(os.Stderr, "dist-cache: %d evals, %d hits / %d misses (%d entries); %d incremental scores; %d split scores\n",
			ds.Evals, ds.Hits, ds.Misses, ds.Entries, res.Stats.IncScores, res.Stats.ScoreSplits)
	}
	printSet(g, res.Set, *verbose)
	if *save != "" {
		if err := saveTo(*save, func(w *os.File) error {
			return fairsqg.SaveWorkload(w, tpl, res)
		}); err != nil {
			log.Fatal(err)
		}
	}
}

// saveTo writes through fn into path, failing loudly on close errors.
func saveTo(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadGraph(file, dataset string, nodes int, seed int64) (*fairsqg.Graph, error) {
	if file == "" {
		return fairsqg.BuildDataset(dataset, fairsqg.DatasetOptions{Nodes: nodes, Seed: seed})
	}
	return fairsqg.ReadGraphFile(file)
}

func loadTemplate(file, canon string) (*fairsqg.Template, error) {
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return fairsqg.ParseTemplate(string(data))
	}
	switch canon {
	case "talent":
		return fairsqg.TalentTemplate(), nil
	case "movie":
		return fairsqg.MovieTemplate(), nil
	case "paper":
		return fairsqg.PaperTemplate(), nil
	default:
		return nil, fmt.Errorf("unknown built-in template %q (want talent, movie or paper)", canon)
	}
}

func printSet(g *fairsqg.Graph, set []*fairsqg.Verified, verbose bool) {
	for i, v := range set {
		fmt.Printf("q%d: %s\n", i+1, v.Q)
		fmt.Printf("    diversity=%.3f coverage=%.0f answers=%d\n", v.Point.Div, v.Point.Cov, len(v.Matches))
		if verbose {
			fmt.Print(indent(v.Q.Describe(), "    "))
		}
	}
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}

// printWork prints what the verifications took from their parents (matcher
// arcs, answers, ancestors) and the phase clocks (they nest).
func printWork(st fairsqg.Stats) {
	fmt.Fprintf(os.Stderr, "inherited: %d arcs, %d plans from scratch, %d ancestors found, %d answers shared, %d reused\n",
		st.Matcher.ArcsInherited, st.Matcher.ScratchPlans, st.AncestorsFound, st.AnswersShared, st.AnswersReused)
	phases := make([]string, len(st.Wall))
	for p, d := range st.Wall {
		phases[p] = fmt.Sprintf("%v %v", fairsqg.Phase(p), d.Round(time.Microsecond))
	}
	fmt.Fprintf(os.Stderr, "phases: %s\n", strings.Join(phases, ", "))
}
