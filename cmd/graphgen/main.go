// Command graphgen generates the synthetic evaluation datasets (dbp, lki,
// cite) and writes them in the TSV, JSON or binary snapshot graph format.
//
// Usage:
//
//	graphgen -dataset lki -nodes 26000 -seed 1 -format tsv -out lki.tsv
//	graphgen -dataset lki -format snapshot -out lki.fsnap   # for fairsqgd warm loads
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"fairsqg"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("graphgen: ")
	dataset := flag.String("dataset", "lki", "dataset to generate: dbp, lki or cite")
	nodes := flag.Int("nodes", 0, "node budget (0 = dataset default)")
	seed := flag.Int64("seed", 1, "generation seed")
	format := flag.String("format", "tsv", "output format: tsv, json or snapshot")
	out := flag.String("out", "-", "output file (- = stdout)")
	stats := flag.Bool("stats", false, "print dataset statistics to stderr")
	flag.Parse()

	// A negative budget would silently fall back to the dataset default;
	// reject it instead.
	if *nodes < 0 {
		log.Fatalf("-nodes must be non-negative, got %d", *nodes)
	}
	if flag.NArg() > 0 {
		log.Fatalf("unexpected arguments: %v", flag.Args())
	}

	g, err := fairsqg.BuildDataset(*dataset, fairsqg.DatasetOptions{Nodes: *nodes, Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	if *stats {
		fmt.Fprintln(os.Stderr, fairsqg.SummarizeGraph(g))
	}
	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}
	switch *format {
	case "tsv":
		err = fairsqg.WriteGraphTSV(w, g)
	case "json":
		err = fairsqg.WriteGraphJSON(w, g)
	case "snapshot":
		err = fairsqg.WriteGraphSnapshot(w, g)
	default:
		log.Fatalf("unknown format %q (want tsv, json or snapshot)", *format)
	}
	if err != nil {
		log.Fatal(err)
	}
}
