package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"fairsqg/internal/graph"
	"fairsqg/internal/measure"
	"fairsqg/internal/pareto"
)

// freeTextFixture is the canonical fixture plus a free-text "bio" on every
// person: hundreds of distinct values (past the matrix cap, so the
// bit-vector kernel runs), some longer than one machine word, some
// non-ASCII, some absent.
func freeTextFixture(t testing.TB, seed int64) *graph.Graph {
	return fixtureGraphExtra(t, seed, func(i int) map[string]graph.Value {
		switch i % 11 {
		case 0:
			return nil
		case 1:
			return map[string]graph.Value{"bio": graph.Str(fmt.Sprintf("経歴 %d — ディレクター", i))}
		case 2:
			return map[string]graph.Value{"bio": graph.Str(strings.Repeat("worked on search ", 3+i%5) + fmt.Sprint(i))}
		default:
			return map[string]graph.Value{"bio": graph.Str(fmt.Sprintf("the-%d-of-%d", i*7919%1000, i))}
		}
	})
}

// TestDifferentialDirectVsCachedDistance: the default tuple distance,
// which runners evaluate directly, and the very same function handed in as
// Config.Distance, which they memoize through a pair cache, must explore
// alike — identical exploration counters, and as many pair evaluations as
// pair-cache lookups — on every algorithm. Over the free-text bio alone
// both run the one pair loop, so points and archive boxes are identical,
// exact and sampled; with major and yearsOfExp beside it the direct path
// sums those two by column, exact where the cached loop quantizes each pair
// to 2⁻³⁰, so exact points agree within 1e-9 relative. Run with -race
// -count=10 for the par case: its workers share the compiled features
// (direct) or one pair cache (cached).
func TestDifferentialDirectVsCachedDistance(t *testing.T) {
	g := freeTextFixture(t, 31)
	for _, c := range []struct {
		attrs    []string
		maxPairs int
	}{{[]string{"bio"}, -1}, {[]string{"bio"}, 150}, {[]string{"major", "yearsOfExp", "bio"}, -1}} {
		identical := len(c.attrs) == 1
		for _, alg := range scoringAlgorithms {
			run := func(cached bool) *Result {
				cfg := fixtureConfig(t, g, 0.3, 3)
				cfg.DistanceAttrs = c.attrs
				cfg.MaxPairs = c.maxPairs
				if cached {
					cfg.Distance = measure.TupleDistance(g, c.attrs)
				}
				res, err := alg.run(newRunnerT(t, cfg))
				if err != nil {
					t.Fatalf("%s %v maxPairs=%d cached=%v: %v", alg.name, c.attrs, c.maxPairs, cached, err)
				}
				return res
			}
			direct, cached := run(false), run(true)
			name := fmt.Sprintf("%s %v maxPairs=%d", alg.name, c.attrs, c.maxPairs)
			if identical && !samePointSets(direct.Points(), cached.Points()) ||
				!identical && !nearPointSets(direct.Points(), cached.Points(), 1e-9) {
				t.Errorf("%s: points diverge:\ndirect %v\ncached %v", name, direct.Points(), cached.Points())
			}
			if db, cb := boxesOf(direct), boxesOf(cached); identical && !equalStrings(db, cb) {
				t.Errorf("%s: archive boxes diverge:\ndirect %v\ncached %v", name, db, cb)
			}
			ds, cs := direct.Stats, cached.Stats
			if ds.Spawned != cs.Spawned || ds.Verified != cs.Verified || ds.Feasible != cs.Feasible || ds.Pruned != cs.Pruned {
				t.Errorf("%s: exploration diverges: direct %d/%d/%d/%d, cached %d/%d/%d/%d", name,
					ds.Spawned, ds.Verified, ds.Feasible, ds.Pruned, cs.Spawned, cs.Verified, cs.Feasible, cs.Pruned)
			}
			if ds.DistCache.Evals == 0 || ds.DistCache.Hits != 0 || ds.DistCache.Misses != 0 {
				t.Errorf("%s: direct path counters %+v, want evals only", name, ds.DistCache)
			}
			if cs.DistCache.Misses == 0 || cs.DistCache.Evals != cs.DistCache.Misses {
				t.Errorf("%s: cached path counters %+v, want evals == misses > 0", name, cs.DistCache)
			}
			if lookups := cs.DistCache.Hits + cs.DistCache.Misses; lookups != ds.DistCache.Evals {
				t.Errorf("%s: cached path looked up %d pairs, direct path evaluated %d", name, lookups, ds.DistCache.Evals)
			}
		}
	}
}

// nearPointSets is samePointSets with δ and f each within tol relative.
func nearPointSets(a, b []pareto.Point, tol float64) bool {
	near := func(x, y float64) bool { return math.Abs(x-y) <= tol*math.Max(math.Abs(x), math.Abs(y)) }
	if len(a) != len(b) {
		return false
	}
	used := make([]bool, len(b))
	for _, p := range a {
		found := false
		for j, q := range b {
			if !used[j] && near(p.Div, q.Div) && near(p.Cov, q.Cov) {
				used[j], found = true, true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// scoringAlgorithms are the walks that score differently enough to compare
// scoring paths on: BiQGen's two sweeps, RfQGen's refinement chains,
// ParQGen's forks and OnlineQGen's stream arrivals.
var scoringAlgorithms = []struct {
	name string
	run  func(r *Runner) (*Result, error)
}{
	{"bi", func(r *Runner) (*Result, error) { return r.BiQGen() }},
	{"rf", func(r *Runner) (*Result, error) { return r.RfQGen() }},
	{"par", func(r *Runner) (*Result, error) { return r.ParQGen(2) }},
	{"online", func(r *Runner) (*Result, error) {
		res, err := r.OnlineQGen(NewRandomStream(r.Config().Template, 120, 99), OnlineOptions{K: 5, Window: 20})
		if err != nil {
			return nil, err
		}
		return &Result{Set: res.Set, Eps: res.Eps, Stats: res.Stats}, nil
	}},
}

// boxesOf renders a result's ε-boxes in set order.
func boxesOf(res *Result) []string {
	out := make([]string, len(res.Set))
	for i, v := range res.Set {
		out[i] = fmt.Sprint(pareto.BoxOf(v.Point, res.Eps))
	}
	return out
}
