package graph

import (
	"bytes"
	"io"
	"math"
	"testing"
)

// fuzzSeedGraph builds a small graph exercising every value type and both
// record kinds, so the serialized seeds cover the full grammar.
func fuzzSeedGraph() *Graph {
	g := New()
	a := g.AddNode("Person", map[string]Value{
		"gender":     Str("female"),
		"name":       Str("tab\tand=equals"),
		"yearsOfExp": Int(7),
		"score":      Num(0.25),
	})
	b := g.AddNode("Person", map[string]Value{"gender": Str("male")})
	o := g.AddNode("Org", map[string]Value{"employees": Int(120)})
	_ = g.AddEdge(a, b, "recommend")
	_ = g.AddEdge(a, o, "worksAt")
	_ = g.AddEdge(b, o, "worksAt")
	g.Freeze()
	return g
}

// FuzzReadTSV asserts the TSV reader never panics and that anything it
// accepts survives a write/read round trip unchanged in shape.
func FuzzReadTSV(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteTSV(&buf, fuzzSeedGraph()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("N\t0\tPerson\tgender=female\nN\t1\tOrg\nE\t0\t1\tworksAt\n"))
	f.Add([]byte("# comment\n\nN\t0\tA\n"))
	f.Add([]byte("N\t1\tA\n"))       // out-of-order id
	f.Add([]byte("E\t0\t1\tx\n"))    // edge before nodes
	f.Add([]byte("X\tjunk\n"))       // unknown record
	f.Add([]byte("N\t0\tA\tbroken")) // attribute without '='
	// IDs a prefix parse would read as valid: each must fail.
	f.Add([]byte("N\t0\tA\nN\t1_000\tA\n"))
	f.Add([]byte("N\t0x1f\tA\n"))
	f.Add([]byte("N\t0\tA\nE\t0abc\t0\tx\n"))
	f.Add([]byte("N\t0\tA\nE\t0\t 0\tx\n"))
	f.Add([]byte("N\t+0\tA\nE\t+0\t-1\tx\n"))
	// Cells that parse as numbers, bools and null, and words that start
	// with a byte a number can start with.
	f.Add([]byte("N\t0\tA\ta=nan\tb=Inf\tc=-0\td=true\te=null\tf=nobody\tg=infant\th=.x\n"))
	// One label on nodes and edges, repeated.
	f.Add([]byte("N\t0\tA\nN\t1\tA\nE\t0\t1\tA\nE\t1\t0\tA\nE\t0\t1\tA\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadTSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		roundTrip(t, g, WriteTSV, ReadTSV)
	})
}

// FuzzReadJSON is the same property for the JSON format, which also keeps
// every value and its kind: the reread graph is Equivalent.
func FuzzReadJSON(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, fuzzSeedGraph()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"nodes":[],"edges":[]}`))
	f.Add([]byte(`{"nodes":[{"label":"A"}],"edges":[{"from":0,"to":0,"label":"x"}]}`))
	f.Add([]byte(`{"nodes":[{"label":"A"}],"edges":[{"from":5,"to":0,"label":"x"}]}`)) // bad endpoint
	f.Add([]byte(`{"nodes":[{"id":0,"label":"A","attrs":{"a":"1","b":{"kind":"string","value":"true"},"c":{"kind":"number","value":"NaN"}}}],"edges":[]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := Equivalent(g, roundTrip(t, g, WriteJSON, ReadJSON)); err != nil {
			t.Fatal(err)
		}
	})
}

// fuzzValue decodes one Value from raw fuzz inputs, covering every kind
// including NaN, infinities and the empty string.
func fuzzValue(kind uint8, num float64, str string) Value {
	switch kind % 4 {
	case 0:
		return Null
	case 1:
		return Bool(num != 0)
	case 2:
		return Num(num)
	default:
		return Str(str)
	}
}

// FuzzValueTotalOrder checks that Compare is a total order on random value
// triples — reflexivity, antisymmetry, transitivity, Equal consistency and
// Op.Apply agreement. The sorted attribute indexes binary-search over this
// order, so any violation (the classic one: NaN comparing "equal" to
// everything) silently corrupts index-backed candidate selection.
func FuzzValueTotalOrder(f *testing.F) {
	f.Add(uint8(2), 1.5, "", uint8(2), math.NaN(), "", uint8(2), 2.5, "")
	f.Add(uint8(0), 0.0, "", uint8(1), 1.0, "", uint8(3), 0.0, "a")
	f.Add(uint8(3), 0.0, "a", uint8(3), 0.0, "ab", uint8(3), 0.0, "b")
	f.Add(uint8(2), math.Inf(-1), "", uint8(2), 0.0, "", uint8(2), math.Inf(1), "")
	f.Fuzz(func(t *testing.T, k1 uint8, n1 float64, s1 string,
		k2 uint8, n2 float64, s2 string, k3 uint8, n3 float64, s3 string) {
		u, v, w := fuzzValue(k1, n1, s1), fuzzValue(k2, n2, s2), fuzzValue(k3, n3, s3)
		for _, x := range []Value{u, v, w} {
			if x.Compare(x) != 0 {
				t.Fatalf("Compare(%v, %v) = %d, want 0 (reflexivity)", x, x, x.Compare(x))
			}
		}
		for _, p := range [][2]Value{{u, v}, {u, w}, {v, w}} {
			a, b := p[0], p[1]
			if sign(a.Compare(b)) != -sign(b.Compare(a)) {
				t.Fatalf("antisymmetry broken: Compare(%v,%v)=%d, Compare(%v,%v)=%d",
					a, b, a.Compare(b), b, a, b.Compare(a))
			}
			if a.Equal(b) != (a.Compare(b) == 0) {
				t.Fatalf("Equal(%v,%v) disagrees with Compare", a, b)
			}
			// Op.Apply must agree with Compare for every operator.
			for _, op := range []Op{OpLT, OpLE, OpEQ, OpGE, OpGT} {
				c := a.Compare(b)
				want := false
				switch op {
				case OpLT:
					want = c < 0
				case OpLE:
					want = c <= 0
				case OpEQ:
					want = c == 0
				case OpGE:
					want = c >= 0
				case OpGT:
					want = c > 0
				}
				if op.Apply(a, b) != want {
					t.Fatalf("Op %s disagrees with Compare on (%v, %v)", op, a, b)
				}
			}
		}
		if u.Compare(v) <= 0 && v.Compare(w) <= 0 && u.Compare(w) > 0 {
			t.Fatalf("transitivity broken: %v <= %v <= %v but Compare(%v,%v) > 0", u, v, w, u, w)
		}
	})
}

// roundTrip writes an accepted graph back out and reads it again; the
// copy must parse and match node/edge counts and per-node labels.
func roundTrip(t *testing.T, g *Graph, write func(io.Writer, *Graph) error, read func(io.Reader) (*Graph, error)) *Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf, g); err != nil {
		t.Fatalf("rewriting accepted graph: %v", err)
	}
	g2, err := read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("rereading rewritten graph: %v\n%s", err, buf.Bytes())
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed shape: %d/%d -> %d/%d",
			g.NumNodes(), g.NumEdges(), g2.NumNodes(), g2.NumEdges())
	}
	for i := 0; i < g.NumNodes(); i++ {
		if g.Label(NodeID(i)) != g2.Label(NodeID(i)) {
			t.Fatalf("node %d label %q -> %q", i, g.Label(NodeID(i)), g2.Label(NodeID(i)))
		}
	}
	return g2
}
