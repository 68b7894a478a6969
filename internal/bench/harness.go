// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Section V) over the synthetic datasets.
// Each experiment is addressed by the identifier from DESIGN.md's
// per-experiment index (table2, fig9a … fig12, cbm, pruning) and returns
// rows mirroring the series the paper plots.
package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"fairsqg/internal/core"
	"fairsqg/internal/gen"
	"fairsqg/internal/graph"
	"fairsqg/internal/groups"
	"fairsqg/internal/match"
	"fairsqg/internal/measure"
	"fairsqg/internal/pareto"
	"fairsqg/internal/query"
)

// Options scales the harness.
type Options struct {
	// Nodes overrides the node budget per dataset; 0 entries use
	// gen.DefaultNodes. The "Quick" preset in tests shrinks everything.
	Nodes map[string]int
	// Seed drives dataset and template generation.
	Seed int64
	// TotalC overrides the default total coverage budget C (default 200).
	TotalC int
	// MaxDomain caps range-variable ladders (default 8).
	MaxDomain int
	// MaxPairs caps pairwise diversity evaluations (default 20000).
	MaxPairs int
	// StreamLen is the online experiments' stream length (default 240).
	StreamLen int
}

func (o Options) nodes(dataset string) int {
	if n := o.Nodes[dataset]; n > 0 {
		return n
	}
	return gen.DefaultNodes(dataset)
}

func (o Options) totalC() int {
	if o.TotalC > 0 {
		return o.TotalC
	}
	return 200
}

func (o Options) maxDomain() int {
	if o.MaxDomain > 0 {
		return o.MaxDomain
	}
	return 8
}

func (o Options) maxPairs() int {
	if o.MaxPairs > 0 {
		return o.MaxPairs
	}
	return 20000
}

func (o Options) streamLen() int {
	if o.StreamLen > 0 {
		return o.StreamLen
	}
	return 240
}

// Harness caches datasets, workloads and runs, and runs experiments. A
// workload is built, and an algorithm run on it, the first time any
// experiment asks for it: figures over one setting (Fig. 10's runtime rows
// and their Fig. 9 twins, pruning and cbm over Fig. 9(a)'s runs) read the
// same runs. Run is single-goroutine; only Dataset may be called
// concurrently.
type Harness struct {
	opts Options

	mu     sync.Mutex
	graphs map[string]*graph.Graph

	workloads map[workloadParams]*core.Config
	results   map[runKey]*run
}

// run is one memoized run: its result and its OnVerified stream, which
// Fig. 9(e) replays (the events keep no instance).
type run struct {
	*core.Result
	verified []core.VerifyEvent
}

// runKey names one run: an algorithm (a series name of coreNames) on a
// workload.
type runKey struct {
	p   workloadParams
	alg string
}

// New returns a harness.
func New(opts Options) *Harness {
	return &Harness{
		opts:      opts,
		graphs:    make(map[string]*graph.Graph),
		workloads: make(map[workloadParams]*core.Config),
		results:   make(map[runKey]*run),
	}
}

// Row is one data point of an experiment: (series, x) → value, with
// secondary metrics in Extra.
type Row struct {
	Exp    string
	Series string
	X      string
	Value  float64
	Extra  map[string]float64
}

// experiments is the one table of experiment identifiers, in run order,
// and the function computing each one's rows.
var experiments = []struct {
	id  string
	run func(*Harness) ([]Row, error)
}{
	{"table2", (*Harness).table2},
	{"fig9a", sweepRows((*Harness).overall, twinAlgorithms, (*Harness).qualityRow)},
	{"fig9b", sweepRows((*Harness).varyEps, twinAlgorithms, (*Harness).qualityRow)},
	{"fig9c", sweepRows((*Harness).varyRangeVars, twinAlgorithms, (*Harness).qualityRow)},
	{"fig9d", sweepRows((*Harness).varyEdgeVars, twinAlgorithms, (*Harness).qualityRow)},
	{"fig9e", (*Harness).fig9e},
	{"fig9f", sweepRows((*Harness).varyCoverage, approxAlgorithms, (*Harness).coverageRow)},
	{"fig9gh", sweepRows((*Harness).varyGroups, approxAlgorithms, (*Harness).groupsRow)},
	{"cbm", sweepRows((*Harness).overallDBP, []string{"Kungs", "CBM", "BiQGen"}, (*Harness).cbmRow)},
	{"fig10a", sweepRows((*Harness).overall, twinAlgorithms, (*Harness).runtimeRow)},
	{"fig10b", sweepRows((*Harness).varyEps, twinAlgorithms, (*Harness).runtimeRow)},
	{"fig10c", sweepRows((*Harness).varyRangeVars, twinAlgorithms, (*Harness).runtimeRow)},
	{"fig10d", sweepRows((*Harness).varyEdgeVars, twinAlgorithms, (*Harness).runtimeRow)},
	{"fig11a", (*Harness).fig11a},
	{"fig11b", (*Harness).fig11b},
	{"fig12", (*Harness).fig12},
	{"pruning", sweepRows((*Harness).overall, []string{"RfQGen", "BiQGen"}, (*Harness).pruningRow)},
	{"ablation", (*Harness).ablation},
}

// Experiments lists the available experiment identifiers in run order.
func Experiments() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// Run executes one experiment by identifier and labels its rows with it.
func (h *Harness) Run(exp string) ([]Row, error) {
	for _, e := range experiments {
		if e.id != exp {
			continue
		}
		rows, err := e.run(h)
		for i := range rows {
			rows[i].Exp = exp
		}
		return rows, err
	}
	return nil, fmt.Errorf("bench: unknown experiment %q (want one of %s)",
		exp, strings.Join(Experiments(), ", "))
}

// Dataset returns the (cached) synthetic graph for a dataset name.
func (h *Harness) Dataset(name string) (*graph.Graph, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if g, ok := h.graphs[name]; ok {
		return g, nil
	}
	g, err := gen.Build(name, gen.Options{Nodes: h.opts.nodes(name), Seed: h.opts.Seed})
	if err != nil {
		return nil, err
	}
	h.graphs[name] = g
	return g, nil
}

// groupAttr names the grouping attribute and its node label per dataset.
func groupAttr(dataset string) (label, attr string) {
	switch dataset {
	case gen.DBP:
		return "Movie", "genre"
	case gen.Cite:
		return "Paper", "topic"
	default:
		return "Person", "gender"
	}
}

// distanceAttrs restricts the tuple distance to the informative attributes
// per dataset (keeps δ cheap and meaningful).
func distanceAttrs(dataset string) []string {
	switch dataset {
	case gen.DBP:
		return []string{"genre", "rating", "year"}
	case gen.Cite:
		return []string{"topic", "numberOfCitations"}
	default:
		return []string{"major", "yearsOfExp"}
	}
}

// workloadParams selects a template shape.
type workloadParams struct {
	dataset   string
	size      int // |Q(u_o)|
	rangeVars int // |X_L|
	edgeVars  int // |X_E|
	numGroups int // |P|
	totalC    int // C, split evenly; unused under tightness
	eps       float64
	// maxDomain overrides the per-variable ladder cap (0 = harness
	// default). Experiments with few range variables raise it so the
	// instance space reaches the paper's |I(Q)| regime (~10²-10³).
	maxDomain int
	// tightness, when positive, derives each c_i as tightness × the root
	// instance's answer count in P_i instead of splitting totalC. The
	// paper's settings (e.g. c=100 against 548 candidates) put the
	// constraints in this "biting" regime regardless of graph scale.
	tightness float64
}

// buildWorkload generates a feasible workload for the parameters and
// returns its run configuration: dataset graph, a generated template whose
// root instance is feasible, and the |P| largest groups of the dataset's
// grouping attribute with C split evenly (the paper's equal-opportunity
// setting).
func (h *Harness) buildWorkload(p workloadParams) (*core.Config, error) {
	g, err := h.Dataset(p.dataset)
	if err != nil {
		return nil, err
	}
	label, attr := groupAttr(p.dataset)
	all := groups.ByAttribute(g, label, attr)
	if len(all) < p.numGroups {
		return nil, fmt.Errorf("bench: dataset %s has only %d groups of %s", p.dataset, len(all), attr)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Size() > all[j].Size() })
	set := all[:p.numGroups]
	if p.tightness > 0 {
		// Constraints are derived from the root answer below; the probe
		// only requires every group to be represented at all.
		groups.EqualOpportunity(set, 1)
	} else {
		groups.SplitEvenly(set, p.totalC)
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	schema, err := gen.SchemaFor(p.dataset)
	if err != nil {
		return nil, err
	}
	m := match.New(g)
	probe := func(tpl *query.Template) bool {
		root := query.MustInstance(tpl, query.Root(tpl))
		matches := m.EvalOutput(root)
		return measure.Feasible(set, matches)
	}
	// LKI templates use the selective director filter only when the
	// director population can still satisfy the constraints; group sizes
	// are checked by the probe either way.
	params := gen.TemplateParams{
		Size:      p.size,
		RangeVars: p.rangeVars,
		EdgeVars:  p.edgeVars,
		Selective: p.dataset == gen.LKI,
		Seed:      h.opts.Seed + 1,
	}
	maxDomain := p.maxDomain
	if maxDomain <= 0 {
		maxDomain = h.opts.maxDomain()
	}
	tpl, err := gen.GenerateFeasibleTemplate(g, schema, params, maxDomain, 40, probe)
	if err != nil {
		return nil, fmt.Errorf("bench: %s workload: %w", p.dataset, err)
	}
	if p.tightness > 0 {
		root := query.MustInstance(tpl, query.Root(tpl))
		counts := set.Count(m.EvalOutput(root))
		for i := range set {
			want := int(p.tightness * float64(counts[i]))
			if want < 1 {
				want = 1
			}
			set[i].Want = want
		}
	}
	return &core.Config{
		G:             g,
		Template:      tpl,
		Groups:        set,
		Eps:           p.eps,
		DistanceAttrs: distanceAttrs(p.dataset),
		MaxPairs:      h.opts.maxPairs(),
	}, nil
}

// workload returns the configuration of p's workload, building it the
// first time.
func (h *Harness) workload(p workloadParams) (*core.Config, error) {
	if cfg, ok := h.workloads[p]; ok {
		return cfg, nil
	}
	cfg, err := h.buildWorkload(p)
	if err != nil {
		return nil, err
	}
	h.workloads[p] = cfg
	return cfg, nil
}

// coreNames maps the series names the rows print to core's algorithm
// names.
var coreNames = map[string]string{
	"Kungs": "kungs", "EnumQGen": "enum", "RfQGen": "rf", "BiQGen": "bi", "CBM": "cbm",
}

// result returns the run of the series' algorithm on p's workload, making
// it the first time any experiment asks for it.
func (h *Harness) result(p workloadParams, alg string) (*run, error) {
	key := runKey{p, alg}
	if res, ok := h.results[key]; ok {
		return res, nil
	}
	base, err := h.workload(p)
	if err != nil {
		return nil, err
	}
	res, cfg := &run{}, *base
	cfg.OnVerified = func(ev core.VerifyEvent) {
		ev.Instance = nil
		res.verified = append(res.verified, ev)
	}
	r, err := core.NewRunner(&cfg)
	if err != nil {
		return nil, err
	}
	if res.Result, err = r.Run(coreNames[alg], 0); err != nil {
		return nil, err
	}
	h.results[key] = res
	return res, nil
}

// reference returns what the indicators measure against on p's workload:
// Kungs' exact front, and its coordinate maxima as I_R's normalizers. Every
// feasible point is weakly dominated by a front point, so ε_m and both
// maxima are what the whole feasible set would give, bit for bit
// (TestKungsFrontIsReference).
func (h *Harness) reference(p workloadParams) (front []pareto.Point, divMax, covMax float64, err error) {
	kres, err := h.result(p, "Kungs")
	if err != nil {
		return nil, 0, 0, err
	}
	front = kres.Points()
	for _, pt := range front {
		divMax, covMax = max(divMax, pt.Div), max(covMax, pt.Cov)
	}
	return front, divMax, covMax, nil
}

// domainForRangeVars picks a per-variable ladder cap so the instance space
// (md+1)^xl stays near the paper's |I(Q)| regime (hundreds to ~1500) as
// |X_L| grows: md ≈ (120·base)^(1/xl).
func domainForRangeVars(xl, base int) int {
	target := float64(120 * base)
	md := int(math.Pow(target, 1/float64(xl)))
	if md < 2 {
		md = 2
	}
	return md
}

// FormatCSV renders rows as CSV with a header, one line per row; Extra
// metrics are flattened into key=value pairs in the final column.
func FormatCSV(rows []Row) string {
	var b strings.Builder
	b.WriteString("experiment,series,x,value,extra\n")
	for _, r := range rows {
		keys := make([]string, 0, len(r.Extra))
		for k := range r.Extra {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var extras []string
		for _, k := range keys {
			extras = append(extras, fmt.Sprintf("%s=%g", k, r.Extra[k]))
		}
		fmt.Fprintf(&b, "%s,%s,%s,%g,%s\n",
			csvEscape(r.Exp), csvEscape(r.Series), csvEscape(r.X), r.Value,
			csvEscape(strings.Join(extras, ";")))
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// FormatRows renders rows as an aligned text table grouped by experiment.
func FormatRows(rows []Row) string {
	var b strings.Builder
	var lastExp string
	for _, r := range rows {
		if r.Exp != lastExp {
			fmt.Fprintf(&b, "== %s ==\n", r.Exp)
			lastExp = r.Exp
		}
		fmt.Fprintf(&b, "%-22s %-14s %10.4f", r.Series, r.X, r.Value)
		if len(r.Extra) > 0 {
			keys := make([]string, 0, len(r.Extra))
			for k := range r.Extra {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, "  %s=%.4g", k, r.Extra[k])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
