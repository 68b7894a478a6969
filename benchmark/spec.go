package main

import (
	"embed"
	"fmt"
	"sort"
	"strings"
	"sync"

	"fairsqg/internal/cluster"
	"fairsqg/internal/core"
	"fairsqg/internal/graph"
	"fairsqg/internal/groups"
	"fairsqg/internal/match"
	"fairsqg/internal/pareto"
	"fairsqg/internal/query"
)

// templateFS holds the template families as data: one DSL file per
// template, named <schema>_<shape>_<n>.tpl.
//
//go:embed templates/*.tpl
var templateFS embed.FS

// templateText returns the DSL source of a template by file stem.
func templateText(name string) (string, error) {
	data, err := templateFS.ReadFile("templates/" + name + ".tpl")
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// templateNames lists the embedded templates whose stem starts with
// prefix, sorted.
func templateNames(prefix string) []string {
	entries, err := templateFS.ReadDir("templates")
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		stem := strings.TrimSuffix(e.Name(), ".tpl")
		if strings.HasPrefix(stem, prefix) {
			names = append(names, stem)
		}
	}
	sort.Strings(names)
	return names
}

// schema carries what a request over one dataset family needs besides
// its template: the fairness groups and the attributes the tuple distance
// compares.
type schema struct {
	groupLabel string
	groupAttr  string
	// groupValues restricts the groups to these attribute values (nil =
	// every value).
	groupValues []string
	distAttrs   []string
	// coverLo..coverHi is the range of the per-group coverage constraint,
	// as a share of the smallest group's count in the template's root
	// answer: tight enough that fronts trade diversity against coverage.
	coverLo, coverHi float64
}

var (
	lkiSchema = schema{groupLabel: "Person", groupAttr: "gender", distAttrs: []string{"major", "yearsOfExp"}, coverLo: 0.1, coverHi: 0.5}
	// The four largest genres: with all ten, the smallest (2 % of movies)
	// would cap every constraint far below answers in the thousands and
	// coverage would be 0 on every instance.
	dbpSchema = schema{groupLabel: "Movie", groupAttr: "genre", groupValues: []string{"Drama", "Romance", "Comedy", "Action"},
		distAttrs: []string{"genre", "rating", "year", "title"}, coverLo: 0.3, coverHi: 0.8}
)

// groupSet induces a request's groups on g.
func groupSet(g *graph.Graph, label, attr string, values []string) groups.Set {
	if len(values) > 0 {
		return groups.ByValues(g, label, attr, values...)
	}
	return groups.ByAttribute(g, label, attr)
}

// opSpec is one request: everything that, together with a loaded graph,
// determines a front. It is the unit all four workloads are built from —
// a library call on the gen workloads, a job body on serve-jobs, the
// configuration of the online run on live-mutate.
type opSpec struct {
	// ID is stable across seeds (the seed only reorders ops), so digests
	// of two commits can be compared op by op.
	ID        string   `json:"id"`
	Template  string   `json:"template"` // file stem
	Text      string   `json:"text"`     // DSL source
	Alg       string   `json:"alg"`      // bi, rf, par or enum
	Label     string   `json:"label"`
	Attr      string   `json:"attr"`
	Values    []string `json:"values,omitempty"`
	Cover     int      `json:"cover"`
	Eps       float64  `json:"eps"`
	MaxDomain int      `json:"maxDomain"`
	MaxPairs  int      `json:"maxPairs"`
	DistAttrs []string `json:"distAttrs"`
	// Twin is the ID of the rf op a par op must agree with.
	Twin string `json:"twin,omitempty"`
	// Small marks ops whose whole lattice is cheap to enumerate, the pool
	// the ε-cover check samples from.
	Small bool `json:"small,omitempty"`
}

// payload renders a request as the job description the server and the
// cluster workers build their configurations from.
func (spec *opSpec) payload() cluster.JobPayload {
	return cluster.JobPayload{
		Template:      spec.Text,
		Groups:        cluster.GroupsPayload{Label: spec.Label, Attr: spec.Attr, Values: spec.Values, Cover: spec.Cover},
		Eps:           spec.Eps,
		MaxDomain:     spec.MaxDomain,
		MaxPairs:      spec.MaxPairs,
		DistanceAttrs: spec.DistAttrs,
	}
}

// buildConfig turns a request into a run configuration against g through
// cluster.BuildConfig, the repository's one spec→config path: parse the
// DSL, bind the ladders the template does not pin, induce the groups, set
// the knobs. A library run and a server job of the same request therefore
// start from the same configuration by construction.
func buildConfig(g *graph.Graph, spec *opSpec) (*core.Config, error) {
	return cluster.BuildConfig(spec.payload(), g)
}

// front is what an op hands back, reduced to what the checks compare.
type front struct {
	points []pareto.Point
	eps    float64
	// spawned, verified, feasible, pruned are the run's own counters
	// (never an engine's cumulative ones).
	spawned, verified, feasible, pruned int
	stats                               core.Stats
}

// runGeneration executes one request through the library: a fresh Runner
// (cold caches, CLI semantics) unless engine is set, in which case the
// run shares that engine's caches the way server jobs do. hook, when
// non-nil, observes every verification.
func runGeneration(g *graph.Graph, spec *opSpec, engine *match.Engine, hook func(core.VerifyEvent)) (*front, error) {
	cfg, err := buildConfig(g, spec)
	if err != nil {
		return nil, err
	}
	cfg.Engine = engine
	cfg.OnVerified = hook
	r, err := core.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var res *core.Result
	switch spec.Alg {
	case "bi":
		res, err = r.BiQGen()
	case "rf":
		res, err = r.RfQGen()
	case "par":
		res, err = r.ParQGen(0)
	case "enum":
		res, err = r.EnumQGen()
	default:
		err = fmt.Errorf("unknown algorithm %q", spec.Alg)
	}
	if err != nil {
		return nil, err
	}
	return &front{
		points:   res.Points(),
		eps:      res.Eps,
		spawned:  res.Stats.Spawned,
		verified: res.Stats.Verified,
		feasible: res.Stats.Feasible,
		pruned:   res.Stats.Pruned,
		stats:    res.Stats,
	}, nil
}

// boxes renders the front's ε-boxes, sorted and de-duplicated: the part
// of a front that is independent of arrival order and float noise.
func boxes(points []pareto.Point, eps float64) string {
	set := make(map[pareto.Box]bool, len(points))
	for _, p := range points {
		set[pareto.BoxOf(p, eps)] = true
	}
	bs := make([]pareto.Box, 0, len(set))
	for b := range set {
		bs = append(bs, b)
	}
	sort.Slice(bs, func(i, j int) bool {
		if bs[i].DI != bs[j].DI {
			return bs[i].DI < bs[j].DI
		}
		return bs[i].FI < bs[j].FI
	})
	var sb strings.Builder
	for _, b := range bs {
		fmt.Fprintf(&sb, "(%d,%d)", b.DI, b.FI)
	}
	return sb.String()
}

// digest is an op's identity for the correctness gate: its boxes and its
// work counters. Later changes may legitimately move either, so nothing
// is compared against a stored value — only against the same op in other
// passes, its twin, or a direct library run.
func (f *front) digest() string {
	return fmt.Sprintf("%s s%d v%d f%d p%d", boxes(f.points, f.eps), f.spawned, f.verified, f.feasible, f.pruned)
}

// epsCovers reports whether the front ε-covers every feasible instance of
// the request's lattice (an exhaustive enumeration, so only for small
// lattices).
func epsCovers(g *graph.Graph, spec *opSpec, f *front) (bool, error) {
	cfg, err := buildConfig(g, spec)
	if err != nil {
		return false, err
	}
	r, err := core.NewRunner(cfg)
	if err != nil {
		return false, err
	}
	defer r.Close()
	all, err := r.AllFeasible()
	if err != nil {
		return false, err
	}
	ref := make([]pareto.Point, len(all))
	for i, v := range all {
		ref[i] = v.Point
	}
	return pareto.MinEps(f.points, ref) <= spec.Eps+1e-9, nil
}

// rootProfile is what prepare learns about a template on the prepared
// graph: whether it parses, binds and has a non-empty root, and the root
// answer's smallest group count (the scale tight coverage is set against).
type rootProfile struct {
	Template string `json:"template"`
	OK       bool   `json:"ok"`
	Err      string `json:"err,omitempty"`
	Matches  int    `json:"matches"`
	MinGroup int    `json:"minGroup"`
}

// profileTemplate evaluates the template's root instance on g.
func profileTemplate(g *graph.Graph, sc schema, name string) rootProfile {
	p := rootProfile{Template: name}
	fail := func(err error) rootProfile {
		p.Err = err.Error()
		return p
	}
	text, err := templateText(name)
	if err != nil {
		return fail(err)
	}
	probe := opSpec{Text: text, Label: sc.groupLabel, Attr: sc.groupAttr, Values: sc.groupValues, Cover: 1, Eps: 0.05, MaxDomain: maxDomain, MaxPairs: 1}
	cfg, err := buildConfig(g, &probe)
	if err != nil {
		return fail(err)
	}
	root, err := query.NewInstance(cfg.Template, query.Root(cfg.Template))
	if err != nil {
		return fail(err)
	}
	matches := match.New(g).EvalOutput(root)
	counts := cfg.Groups.Count(matches)
	p.Matches = len(matches)
	p.MinGroup = counts[0]
	for _, c := range counts {
		p.MinGroup = min(p.MinGroup, c)
	}
	if p.MinGroup == 0 {
		return fail(fmt.Errorf("root answer leaves a group empty (%d matches)", p.Matches))
	}
	p.OK = true
	return p
}

// parallelEach runs fn(i) for i in [0, n) on workers goroutines.
func parallelEach(n, workers int, fn func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
