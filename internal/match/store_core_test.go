package match_test

import (
	"fmt"
	"testing"

	"fairsqg/internal/core"
	"fairsqg/internal/gen"
	"fairsqg/internal/groups"
	"fairsqg/internal/match"
	"fairsqg/internal/query"
)

const starDSL = `template star
node u_o Person title = "Director"
node u1 Person yearsOfExp >= $x1
node u2 Person yearsOfExp >= $x2
node u3 Org employees >= 100
edge u1 u_o recommend ?e1
edge u2 u_o recommend ?e2
edge u_o u3 worksAt
ladder $x1 8 18
ladder $x2 8 18
output u_o
`

// TestOneEntryCeilingSameResults: under a ceiling that holds one answer at a
// time the store evicts on nearly every verification, and every job still
// returns what it returns on an engine of its own — eviction loses time,
// never a result.
func TestOneEntryCeilingSameResults(t *testing.T) {
	g := gen.BuildLKI(gen.Options{Nodes: 3000, Seed: 1})
	job := func(e *match.Engine, cover int) *core.Runner {
		tpl, err := query.ParseString(starDSL)
		if err != nil {
			t.Fatal(err)
		}
		set := groups.EqualOpportunity(groups.ByAttribute(g, "Person", "gender"), cover)
		r, err := core.NewRunner(&core.Config{G: g, Template: tpl, Groups: set, Eps: 0.1, MaxPairs: 2000, Engine: e})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	fingerprint := func(res *core.Result, err error) string {
		if err != nil {
			t.Fatal(err)
		}
		out := fmt.Sprint(res.Stats.Spawned, res.Stats.Verified, res.Stats.Feasible, res.Stats.Pruned)
		for _, v := range res.Set {
			out += fmt.Sprintf("\n%s|%v|%v|%d", v.Q.Key(), v.Point.Div, v.Point.Cov, len(v.Matches))
		}
		return out
	}
	tpl := job(nil, 1).Config().Template
	rootAnswer := match.New(g).EvalOutput(query.MustInstance(tpl, query.Root(tpl)))
	if len(rootAnswer) < 10 {
		t.Fatalf("root answer %v: the dataset yields no front", rootAnswer)
	}
	tight := match.NewEngine(g, match.EngineOptions{})
	tight.SetStoreCeiling(int64(4*len(rootAnswer)) + 512) // the largest answer, its key and entry
	for _, cover := range []int{1, 2} {
		for name, run := range map[string]func(r *core.Runner) (*core.Result, error){
			"rf":   func(r *core.Runner) (*core.Result, error) { return r.RfQGen() },
			"bi":   func(r *core.Runner) (*core.Result, error) { return r.BiQGen() },
			"enum": func(r *core.Runner) (*core.Result, error) { return r.EnumQGen() },
		} {
			if got, want := fingerprint(run(job(tight, cover))), fingerprint(run(job(nil, cover))); got != want {
				t.Errorf("%s cover=%d under a one-entry ceiling:\n%s\non its own:\n%s", name, cover, got, want)
			}
		}
	}
	st := tight.Stats().Shared
	if st.Evictions == 0 || st.Bytes > st.Ceiling || st.Entries > 8 {
		t.Errorf("one-entry ceiling: %+v", st)
	}
	t.Logf("store under a one-entry ceiling: %+v", st)
}
