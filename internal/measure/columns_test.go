package measure

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"fairsqg/internal/graph"
)

// featureBackings returns titleGraph(n) heap-built, decoded from its
// snapshot and mapped from it; the caller closes the mapped one.
func featureBackings(t *testing.T, n int) map[string]*graph.Graph {
	t.Helper()
	heap, _ := titleGraph(t, n)
	var buf bytes.Buffer
	if err := graph.WriteSnapshot(&buf, heap); err != nil {
		t.Fatal(err)
	}
	decoded, err := graph.ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.fsnap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	mapped, err := graph.OpenSnapshotMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{"heap": heap, "decoded": decoded, "mapped": mapped}
}

// freshFeatures composes features from columns compiled for this call
// alone, kept nowhere: the oracle of the columns a generation keeps.
func freshFeatures(g *graph.Graph, attrs []string) *DistanceFeatures {
	f := &DistanceFeatures{n: float64(len(attrs))}
	for _, name := range attrs {
		id := g.AttrIDOf(name)
		c := newFeatureCol(g.ActiveDomainByID(id), g.AttrRow(id))
		if c.nstr > levMatrixCap {
			f.text = append(f.text, *c)
		}
		f.cols = append(f.cols, *c)
	}
	return f
}

// sameColumns reports whether a's and b's columns share their backing
// arrays, one by one.
func sameColumns(a, b *DistanceFeatures) bool {
	if len(a.cols) != len(b.cols) || len(a.text) != len(b.text) {
		return false
	}
	for i := range a.cols {
		x, y := &a.cols[i], &b.cols[i]
		if &x.kinds[0] != &y.kinds[0] || &x.ids[0] != &y.ids[0] ||
			(x.info != nil) != (y.info != nil) || (x.info != nil && &x.info[0] != &y.info[0]) ||
			(x.mat != nil) != (y.mat != nil) || (x.mat != nil && &x.mat[0] != &y.mat[0]) {
			return false
		}
	}
	return true
}

// sharesAnyColumn reports whether any column of a shares its per-entry
// arrays with the same column of b.
func sharesAnyColumn(a, b *DistanceFeatures) bool {
	for i := range min(len(a.cols), len(b.cols)) {
		if &a.cols[i].kinds[0] == &b.cols[i].kinds[0] || &a.cols[i].ids[0] == &b.cols[i].ids[0] {
			return true
		}
	}
	return false
}

// columnCopy is a deep copy of features' per-entry data, to show it is
// never written after it is built.
func columnCopy(f *DistanceFeatures) [][]any {
	var out [][]any
	for _, c := range f.cols {
		out = append(out, []any{c.span, c.nstr, slices.Clone(c.kinds), slices.Clone(c.ids),
			slices.Clone(c.vals), slices.Clone(c.info), slices.Clone(c.mat)})
	}
	return out
}

// deltas scores answers of 31, 32, 33 and 65 nodes drawn from g's first n
// nodes through EvalState, exact and sampled (fewer pairs allowed than the
// smallest answer has), and returns every score and pair sum.
func deltas(f *DistanceFeatures, n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	var out []float64
	for _, size := range []int{31, 32, 33, 65} {
		m := make([]graph.NodeID, 0, size)
		for _, v := range rng.Perm(n)[:size] {
			m = append(m, graph.NodeID(v))
		}
		slices.Sort(m)
		for _, maxPairs := range []int{0, 200} {
			d := &Diversity{Lambda: 0.5, Relevance: ConstantRelevance(1), LabelPopulation: n, Features: f, MaxPairs: maxPairs}
			score, st := d.EvalState(m)
			out = append(out, score)
			if st != nil {
				out = append(out, float64(st.PairUnits()))
			}
		}
	}
	return out
}

// TestDistanceFeaturesPerGeneration: on every backing, the features of one
// generation share one set of columns, built on first use, and δ over them
// is the same bits as over columns compiled per call. A batch that edits a
// free-text title and adds a year below every other (moving every rank and
// the span) gets fresh columns on its generation, and the parent's stay as
// they were, still shared by its readers.
func TestDistanceFeaturesPerGeneration(t *testing.T) {
	const n = 200
	for name, g := range featureBackings(t, n) {
		t.Run(name, func(t *testing.T) {
			live := graph.NewLive(g)
			defer live.Close()
			parent := live.Acquire()
			defer parent.Close()
			f := NewDistanceFeatures(parent, titleAttrs)
			if len(f.text) != 1 || f.cols[0].mat == nil {
				t.Fatalf("%d free-text columns, genre matrix %v: want title past the cap, genre under it",
					len(f.text), f.cols[0].mat != nil)
			}
			if again := NewDistanceFeatures(parent, titleAttrs); !sameColumns(f, again) {
				t.Fatal("two calls on one generation compiled two sets of columns")
			}
			want := deltas(freshFeatures(parent, titleAttrs), n, 1)
			if got := deltas(f, n, 1); !slices.Equal(got, want) {
				t.Fatalf("δ over the generation's columns %v, over per-call ones %v", got, want)
			}
			before := columnCopy(f)
			if _, err := live.Apply([]graph.Mutation{
				{Op: graph.MutSetAttr, Node: 3, Attr: "title", Value: graph.Str("a-title-no-movie-had")},
				{Op: graph.MutSetAttr, Node: 4, Attr: "year", Value: graph.Int(1066)},
			}); err != nil {
				t.Fatal(err)
			}
			child := NewDistanceFeatures(live.Graph(), titleAttrs)
			if sharesAnyColumn(child, f) {
				t.Error("the batch's generation reads its parent's columns")
			}
			if !sameColumns(child, NewDistanceFeatures(live.Graph(), titleAttrs)) {
				t.Error("two calls on the batch's generation compiled two sets of columns")
			}
			if got, want := deltas(child, n, 2), deltas(freshFeatures(live.Graph(), titleAttrs), n, 2); !slices.Equal(got, want) {
				t.Errorf("δ on the batch's generation %v, over per-call columns %v", got, want)
			}
			if got := columnCopy(NewDistanceFeatures(parent, titleAttrs)); fmt.Sprint(got) != fmt.Sprint(before) {
				t.Error("the parent's columns changed under the batch")
			}
			if !sameColumns(f, NewDistanceFeatures(parent, titleAttrs)) {
				t.Error("the parent's readers lost its columns")
			}
		})
	}
}

// TestFeatureColumnsRaceApply: readers compose features on a base
// generation, building its columns under concurrent first use, while Apply
// forks the base's rows into the next generation; every reader of a
// generation gets one shared set of columns, and δ over either generation is
// a per-call build's. Run it under -race.
func TestFeatureColumnsRaceApply(t *testing.T) {
	const n = 120
	for name, g := range featureBackings(t, n) {
		t.Run(name, func(t *testing.T) {
			live := graph.NewLive(g)
			defer live.Close()
			for k := 0; k < 4; k++ {
				base := live.Acquire()
				if k%2 == 1 {
					base.AttrRow(base.AttrIDOf("title")) // a row that exists before the readers
				}
				got := make([]*DistanceFeatures, 4)
				var wg sync.WaitGroup
				for w := range got {
					wg.Add(1)
					go func() {
						defer wg.Done()
						got[w] = NewDistanceFeatures(base, titleAttrs)
						got[w].Distance(graph.NodeID(w), graph.NodeID(w+1))
					}()
				}
				_, err := live.Apply([]graph.Mutation{
					{Op: graph.MutSetAttr, Node: graph.NodeID(k), Attr: "title", Value: graph.Str(fmt.Sprint("retitled-", k))},
					{Op: graph.MutSetAttr, Node: graph.NodeID(k + 10), Attr: "rating", Value: graph.Num(-float64(k))},
				})
				wg.Wait()
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range got[1:] {
					if !sameColumns(f, got[0]) {
						t.Fatalf("batch %d: concurrent readers of one generation compiled two sets of columns", k)
					}
				}
				for gi, gen := range []*graph.Graph{base, live.Graph()} {
					if a, b := deltas(NewDistanceFeatures(gen, titleAttrs), n, int64(k)), deltas(freshFeatures(gen, titleAttrs), n, int64(k)); !slices.Equal(a, b) {
						t.Fatalf("batch %d, generation %d: δ %v, per-call columns %v", k, gi, a, b)
					}
				}
				base.Close()
			}
		})
	}
}
