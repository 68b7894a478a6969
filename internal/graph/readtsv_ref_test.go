package graph_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"fairsqg/internal/gen"
	"fairsqg/internal/graph"
)

// referenceParseValue is ParseValue without its first-byte test: the
// switch, then ParseFloat on every other cell, then a string.
func referenceParseValue(s string) graph.Value {
	switch s {
	case "", "null":
		return graph.Null
	case "true":
		return graph.Bool(true)
	case "false":
		return graph.Bool(false)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return graph.Num(f)
	}
	return graph.Str(s)
}

// referenceReadTSV is the line-at-a-time TSV reader ReadTSV replaced:
// strings.Split on each line, fmt.Sscanf for IDs, the exported builder
// methods and referenceParseValue. It differs from ReadTSV only on the
// malformed IDs a prefix parse accepts, which WriteTSV never writes.
func referenceReadTSV(r io.Reader) (*graph.Graph, error) {
	g := graph.New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			var nodes, edges int
			if n, _ := fmt.Sscanf(line, "# fairsqg-graph nodes=%d edges=%d", &nodes, &edges); n == 2 {
				g.Grow(nodes)
			}
			continue
		}
		fields := strings.Split(line, "\t")
		switch fields[0] {
		case "N":
			if len(fields) < 3 {
				return nil, fmt.Errorf("line %d: node record needs id and label", lineNo)
			}
			var id int
			if _, err := fmt.Sscanf(fields[1], "%d", &id); err != nil {
				return nil, fmt.Errorf("line %d: bad node id %q", lineNo, fields[1])
			}
			if id != g.NumNodes() {
				return nil, fmt.Errorf("line %d: node id %d out of order (expected %d)", lineNo, id, g.NumNodes())
			}
			nid := g.AddNode(fields[2], nil)
			for _, kv := range fields[3:] {
				eq := strings.IndexByte(kv, '=')
				if eq < 0 {
					return nil, fmt.Errorf("line %d: bad attribute %q", lineNo, kv)
				}
				g.SetAttr(nid, kv[:eq], referenceParseValue(kv[eq+1:]))
			}
		case "E":
			if len(fields) != 4 {
				return nil, fmt.Errorf("line %d: edge record needs from, to, label", lineNo)
			}
			var from, to int
			if _, err := fmt.Sscanf(fields[1], "%d", &from); err != nil {
				return nil, fmt.Errorf("line %d: bad edge source %q", lineNo, fields[1])
			}
			if _, err := fmt.Sscanf(fields[2], "%d", &to); err != nil {
				return nil, fmt.Errorf("line %d: bad edge target %q", lineNo, fields[2])
			}
			if err := g.AddEdge(graph.NodeID(from), graph.NodeID(to), fields[3]); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("line %d: unknown record type %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	g.Freeze()
	return g, nil
}

// TestReadTSVEquivalent: on the LKI graph the gen-match benchmark loads
// (15,000 nodes, dataset seed 7), ReadTSV builds what the reference reader
// builds from the same WriteTSV text — graph.Equivalent, and byte-identical
// snapshots, so dictionaries, columns, indexes and adjacency all agree.
func TestReadTSVEquivalent(t *testing.T) {
	g := gen.BuildLKI(gen.Options{Nodes: 15000, Seed: 7})
	var tsv bytes.Buffer
	if err := graph.WriteTSV(&tsv, g); err != nil {
		t.Fatal(err)
	}
	got, err := graph.ReadTSV(bytes.NewReader(tsv.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceReadTSV(bytes.NewReader(tsv.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.Equivalent(got, want); err != nil {
		t.Fatalf("ReadTSV differs from the reference reader: %v", err)
	}
	var a, b bytes.Buffer
	if err := graph.WriteSnapshot(&a, got); err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteSnapshot(&b, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("snapshots differ: ReadTSV %d bytes, reference %d bytes", a.Len(), b.Len())
	}
}

// FuzzParseValue: ParseValue's first-byte test skips ParseFloat only where
// ParseFloat would fail, so every string parses as the reference does —
// same kind, same value (NaN equal to NaN), same float bits and text.
func FuzzParseValue(f *testing.F) {
	for _, s := range []string{"", "null", "true", "false", "True", "1", "-0", "+5", ".5", "5.",
		"1e3", "1e", "inf", "-Inf", "+Infinity", "NaN", "nan", "nobody", "Nashville", "infant",
		"0x1p-2", "0x1f", "1_000", "0b101", " 5", "5 ", "-", "+", ".", "i", "é", "1e400"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, want := graph.ParseValue(s), referenceParseValue(s)
		if got.Kind() != want.Kind() || got.Compare(want) != 0 ||
			math.Float64bits(got.Float()) != math.Float64bits(want.Float()) || got.Text() != want.Text() {
			t.Fatalf("ParseValue(%q) = %v (%s), reference %v (%s)", s, got, got.Kind(), want, want.Kind())
		}
	})
}
