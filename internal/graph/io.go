package graph

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// ReadFile loads a frozen graph from a file, choosing the format by the
// lowercased extension: .fsnap is a binary snapshot (ReadSnapshotFile),
// .json the JSON form, anything else TSV.
func ReadFile(path string) (*Graph, error) {
	ext := strings.ToLower(filepath.Ext(path))
	if ext == ".fsnap" {
		return ReadSnapshotFile(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if ext == ".json" {
		return ReadJSON(f)
	}
	return ReadTSV(f)
}

// jsonGraph is the on-disk JSON form of a graph. Counts is a load hint
// (it lets the reader pre-allocate); readers treat it as untrusted and
// clamp it, never as authoritative sizes.
type jsonGraph struct {
	Counts *jsonCounts `json:"counts,omitempty"`
	Nodes  []jsonNode  `json:"nodes"`
	Edges  []jsonEdge  `json:"edges"`
}

type jsonCounts struct {
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
}

type jsonNode struct {
	ID    int                  `json:"id"`
	Label string               `json:"label"`
	Attrs map[string]jsonValue `json:"attrs,omitempty"`
}

type jsonEdge struct {
	From  int    `json:"from"`
	To    int    `json:"to"`
	Label string `json:"label"`
}

// WriteJSON serializes g (frozen or not) as a single JSON document.
func WriteJSON(w io.Writer, g *Graph) error {
	doc := jsonGraph{
		Counts: &jsonCounts{Nodes: g.NumNodes(), Edges: g.NumEdges()},
		Nodes:  make([]jsonNode, g.NumNodes()),
	}
	for i := range doc.Nodes {
		n := jsonNode{ID: i, Label: g.Label(NodeID(i))}
		if pairs := g.AttrPairs(NodeID(i)); len(pairs) > 0 {
			n.Attrs = make(map[string]jsonValue, len(pairs))
			for _, p := range pairs {
				n.Attrs[p.Name] = jsonValue{p.Value}
			}
		}
		doc.Nodes[i] = n
	}
	for from := range doc.Nodes {
		for _, e := range g.Out(NodeID(from)) {
			doc.Edges = append(doc.Edges, jsonEdge{From: from, To: int(e.To), Label: g.labels[e.Label]})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// ReadJSON parses a graph previously produced by WriteJSON and freezes it.
// Node IDs in the document must be dense, 0-based and in order.
func ReadJSON(r io.Reader) (*Graph, error) {
	var doc jsonGraph
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("graph: decoding JSON graph: %w", err)
	}
	g := New()
	// The declared count is a pre-allocation hint only: Grow clamps it,
	// so a forged header can't force an allocation the document's actual
	// size doesn't justify.
	if doc.Counts != nil {
		g.Grow(doc.Counts.Nodes)
	} else {
		g.Grow(len(doc.Nodes))
	}
	for i, n := range doc.Nodes {
		if n.ID != i {
			return nil, fmt.Errorf("graph: node %d has id %d; ids must be dense and ordered", i, n.ID)
		}
		// Feed attributes straight into the builder columns: sorted names
		// keep AttrID assignment deterministic, and no intermediate map is
		// allocated per node.
		id := g.AddNode(n.Label, nil)
		names := make([]string, 0, len(n.Attrs))
		for a := range n.Attrs {
			names = append(names, a)
		}
		sort.Strings(names)
		for _, a := range names {
			g.SetAttr(id, a, n.Attrs[a].v)
		}
	}
	for _, e := range doc.Edges {
		if err := g.AddEdge(NodeID(e.From), NodeID(e.To), e.Label); err != nil {
			return nil, err
		}
	}
	g.Freeze()
	return g, nil
}

// WriteTSV serializes g as two tab-separated sections:
//
//	N <id> <label> <attr>=<value> ...
//	E <from> <to> <label>
//
// The format loads faster than JSON on large graphs and diffs cleanly.
func WriteTSV(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	// A comment header with the counts: old readers skip it ('#' lines
	// are comments), new ones use it as a clamped pre-allocation hint.
	fmt.Fprintf(bw, "# fairsqg-graph nodes=%d edges=%d\n", g.NumNodes(), g.NumEdges())
	for i := 0; i < g.NumNodes(); i++ {
		fmt.Fprintf(bw, "N\t%d\t%s", i, g.Label(NodeID(i)))
		for _, p := range g.AttrPairs(NodeID(i)) {
			fmt.Fprintf(bw, "\t%s=%s", p.Name, p.Value.String())
		}
		fmt.Fprintln(bw)
	}
	for from := 0; from < g.NumNodes(); from++ {
		for _, e := range g.Out(NodeID(from)) {
			fmt.Fprintf(bw, "E\t%d\t%d\t%s\n", from, e.To, g.labels[e.Label])
		}
	}
	return bw.Flush()
}

// ReadTSV parses the WriteTSV format and freezes the resulting graph. An ID
// is a whole decimal int32; of a line, only new names and strings are copied.
func ReadTSV(r io.Reader) (*Graph, error) {
	g := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var fields [][]byte
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := sc.Bytes()
		if len(line) == 0 || line[0] == '#' {
			// The WriteTSV count header is a pre-allocation hint; Grow
			// clamps it, so forged counts cost nothing. Any other comment
			// is skipped.
			var nodes, edges int
			if n, _ := fmt.Sscanf(string(line), "# fairsqg-graph nodes=%d edges=%d", &nodes, &edges); n == 2 {
				g.Grow(nodes)
			}
			continue
		}
		fields = fields[:0]
		for rest, more := line, true; more; {
			var f []byte
			f, rest, more = bytes.Cut(rest, []byte{'\t'})
			fields = append(fields, f)
		}
		switch string(fields[0]) {
		case "N":
			if len(fields) < 3 {
				return nil, fmt.Errorf("graph: line %d: node record needs id and label", lineNo)
			}
			id, err := strconv.ParseInt(string(fields[1]), 10, 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad node id %q", lineNo, fields[1])
			}
			if int(id) != g.NumNodes() {
				return nil, fmt.Errorf("graph: line %d: node id %d out of order (expected %d)", lineNo, id, g.NumNodes())
			}
			nid := g.addNode(internBytes(g.labelIDs, fields[2], g.Intern), nil)
			for _, kv := range fields[3:] {
				name, val, ok := bytes.Cut(kv, []byte{'='})
				if !ok {
					return nil, fmt.Errorf("graph: line %d: bad attribute %q", lineNo, kv)
				}
				g.setAttr(nid, internBytes(g.attrIDs, name, g.internAttr), ParseValue(string(val)))
			}
		case "E":
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph: line %d: edge record needs from, to, label", lineNo)
			}
			from, err := strconv.ParseInt(string(fields[1]), 10, 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad edge source %q", lineNo, fields[1])
			}
			to, err := strconv.ParseInt(string(fields[2]), 10, 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad edge target %q", lineNo, fields[2])
			}
			if err := g.addEdge(NodeID(from), NodeID(to), internBytes(g.labelIDs, fields[3], g.Intern)); err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record type %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	g.Freeze()
	return g, nil
}
