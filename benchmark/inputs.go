package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"fairsqg/internal/core"
	"fairsqg/internal/gen"
	"fairsqg/internal/graph"
	"fairsqg/internal/query"
)

// datasetSeed fixes the generated datasets. The -seed flag reorders the
// requests and picks the mutation targets and the stream order; it does
// not regenerate the dataset, so that runs with different seeds measure
// the same amount of work (README, "What the seed changes").
const datasetSeed = 7

// params sizes one workload at one scale.
type params struct {
	nodes          int        // graph node budget
	mix            []algCount // requests per template: algorithm × coverage/ε variants
	liveOps        int        // live-mutate: batches (ops) per pass
	batchOps       int        // live-mutate: mutations per batch
	restartBatches int        // live-mutate: batches in the restart log
	passes         int        // measured passes (R)
	maxSetupReps   int        // ceiling of set-up repetitions
}

// algCount is how many coverage/ε variants of one algorithm a workload
// runs per template.
type algCount struct {
	alg string
	n   int
}

// paramsFor returns the workload's sizes. Tune op counts here, never R:
// every workload keeps at least 110 ops per pass at the default scale so
// front_ms.p90 has more than ten samples beyond it.
func paramsFor(workload, scale string) (params, error) {
	var p params
	switch workload {
	case "gen-match":
		// bi is the paper's algorithm and the cheapest; rf and par walk most
		// of the lattice, so fewer of them keep a pass short.
		p = params{nodes: 15000, mix: []algCount{{"bi", 8}, {"rf", 2}, {"par", 2}}}
	case "gen-score":
		p = params{nodes: 8000, mix: []algCount{{"bi", 10}, {"rf", 10}}}
	case "serve-jobs":
		p = params{nodes: 32000, mix: []algCount{{"bi", 9}, {"rf", 3}, {"enum", 3}}}
	case "live-mutate":
		p = params{nodes: 20000, liveOps: 112, batchOps: 20, restartBatches: 30}
	default:
		return p, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	p.passes, p.maxSetupReps = 5, 16
	switch scale {
	case "default":
	case "smoke":
		p.nodes = max(1200, p.nodes/12)
		for i := range p.mix {
			p.mix[i].n = 1
		}
		p.liveOps = min(p.liveOps, 8)
		p.restartBatches = min(p.restartBatches, 8)
		p.passes, p.maxSetupReps = 2, 4
	case "paper":
		// The paper's LKI has about a million nodes; the request mix is
		// unchanged, only the graphs grow.
		p.nodes = 1000000
	default:
		return p, fmt.Errorf("unknown scale %q (want smoke, default or paper)", scale)
	}
	return p, nil
}

// inputs is the ops file prepare writes beside the graph files: the
// request list in run order, what prepare learned about each template,
// and the fixed request set-up answers first.
type inputs struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Ops      []opSpec      `json:"ops"`
	SetupOp  opSpec        `json:"setupOp"`
	Profiles []rootProfile `json:"profiles"`
	// FailedOps counts requests that could not be built because their
	// template did not parse, bind or have a feasible root.
	FailedOps int `json:"failedOps"`
	// Stream is live-mutate's instance stream, one instantiation per
	// arrival.
	Stream [][]int `json:"stream,omitempty"`
}

// File names inside a prepared input directory.
const (
	opsFile      = "ops.json"
	tsvFile      = "graph.tsv"
	snapFile     = "graph.fsnap"
	snapDirName  = "snapshots"
	serveGraph   = "lki"
	scriptFile   = "script.jsonl"
	restartLog   = "restart.fdelta"
	passLog      = "pass.fdelta"
	smallLattice = 64
)

var epsGrid = []float64{0.05, 0.1, 0.2}

// maxDomain caps the ladders BindDomains builds for range variables a
// template does not pin: lowest, middle and highest value of the domain.
const maxDomain = 3

// prepare generates a workload's input files into dir from the seed.
// Nothing here is timed; main runs it in a child process so the measuring
// process never holds the generator's memory.
func prepare(dir, workload string, seed int64, scale string) error {
	p, err := paramsFor(workload, scale)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{Workload: workload, Seed: seed}
	switch workload {
	case "gen-match":
		g := gen.BuildLKI(gen.Options{Nodes: p.nodes, Seed: datasetSeed})
		if err := writeFile(filepath.Join(dir, tsvFile), func(f *os.File) error { return graph.WriteTSV(f, g) }); err != nil {
			return err
		}
		// MaxPairs 2000 keeps scoring a minor share of each verification.
		buildOps(in, g, lkiSchema, templateNames("lki_"), p.mix,
			func(string) int { return 2000 })
	case "gen-score":
		g := gen.BuildDBP(gen.Options{Nodes: p.nodes, Seed: datasetSeed})
		if err := writeSnapshot(filepath.Join(dir, snapFile), g); err != nil {
			return err
		}
		// Two thirds of the requests (four templates of six) sample 20000
		// pairs of answers in the thousands; the dbp_small templates have
		// answers in the hundreds and are scored exactly, which puts
		// EvalDelta and the pair cache on the path.
		buildOps(in, g, dbpSchema, templateNames("dbp_"), p.mix,
			func(tpl string) int {
				if tpl == "dbp_small_1" || tpl == "dbp_small_2" {
					return -1
				}
				return 10000
			})
	case "serve-jobs":
		g := gen.BuildLKI(gen.Options{Nodes: p.nodes, Seed: datasetSeed})
		sdir := filepath.Join(dir, snapDirName)
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			return err
		}
		if err := writeSnapshot(filepath.Join(sdir, serveGraph+".fsnap"), g); err != nil {
			return err
		}
		// Eight of the ten LKI templates; the two whose jobs run longest
		// stay out so that per-job fixed costs are a visible share.
		var tpls []string
		for _, name := range templateNames("lki_") {
			if name != "lki_cycle_2" && name != "lki_tree_1" {
				tpls = append(tpls, name)
			}
		}
		buildOps(in, g, lkiSchema, tpls, p.mix,
			func(string) int { return 2000 })
	case "live-mutate":
		g := gen.BuildLKI(gen.Options{Nodes: p.nodes, Seed: datasetSeed})
		if err := writeSnapshot(filepath.Join(dir, snapFile), g); err != nil {
			return err
		}
		if err := prepareLive(in, dir, g, rng, p); err != nil {
			return err
		}
	}
	if workload != "live-mutate" {
		rng.Shuffle(len(in.Ops), func(i, j int) { in.Ops[i], in.Ops[j] = in.Ops[j], in.Ops[i] })
	}
	data, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, opsFile), data, 0o644)
}

// buildOps fills in.Ops with templates × algorithms × variants in a fixed
// order (the caller shuffles), in.Profiles with each template's root
// profile and in.SetupOp with the first request built. An algorithm's
// variants spread the coverage constraint evenly over the schema's range
// and cycle through the ε grid.
func buildOps(in *inputs, g *graph.Graph, sc schema, tpls []string, mix []algCount, maxPairs func(tpl string) int) {
	perTemplate := 0
	for _, m := range mix {
		perTemplate += m.n
	}
	for _, name := range tpls {
		prof := profileTemplate(g, sc, name)
		in.Profiles = append(in.Profiles, prof)
		if !prof.OK {
			in.FailedOps += perTemplate
			continue
		}
		text, _ := templateText(name) // profileTemplate read it already
		for _, m := range mix {
			for v := 0; v < m.n; v++ {
				frac := sc.coverLo
				if m.n > 1 {
					frac += (sc.coverHi - sc.coverLo) * float64(v) / float64(m.n-1)
				}
				op := opSpec{
					ID:       fmt.Sprintf("%s/%s/v%d", name, m.alg, v),
					Template: name, Text: text, Alg: m.alg,
					Label: sc.groupLabel, Attr: sc.groupAttr, Values: sc.groupValues,
					Cover: max(1, int(math.Floor(frac*float64(prof.MinGroup)))), Eps: epsGrid[v%len(epsGrid)],
					MaxDomain: maxDomain, MaxPairs: maxPairs(name), DistAttrs: sc.distAttrs,
				}
				if m.alg == "par" {
					// Same variant index, same count: same request as rf.
					op.Twin = fmt.Sprintf("%s/rf/v%d", name, v)
				}
				if cfg, err := buildConfig(g, &op); err == nil {
					op.Small = cfg.Template.InstanceSpaceSize() <= smallLattice
				}
				in.Ops = append(in.Ops, op)
			}
		}
	}
	if len(in.Ops) > 0 {
		in.SetupOp = in.Ops[0]
	}
}

// prepareLive writes live-mutate's inputs: the online run's request, the
// instance stream, the per-pass mutation script and the restart log that
// set-up replays.
func prepareLive(in *inputs, dir string, g *graph.Graph, rng *rand.Rand, p params) error {
	const tplName = "lki_star_1"
	prof := profileTemplate(g, lkiSchema, tplName)
	in.Profiles = append(in.Profiles, prof)
	if !prof.OK {
		in.FailedOps = p.liveOps
		return nil
	}
	text, _ := templateText(tplName)
	op := opSpec{
		ID: tplName + "/online", Template: tplName, Text: text, Alg: "online",
		Label: lkiSchema.groupLabel, Attr: lkiSchema.groupAttr,
		Cover: max(1, prof.MinGroup*3/5), Eps: 0.05,
		MaxDomain: maxDomain, MaxPairs: 2000, DistAttrs: lkiSchema.distAttrs,
	}
	in.Ops, in.SetupOp = []opSpec{op}, op

	// The stream is the template's whole lattice in seeded order, repeated
	// to two arrivals per batch: every seed verifies the same multiset of
	// instances, only their order (and so the window's content) differs.
	cfg, err := buildConfig(g, &op)
	if err != nil {
		return err
	}
	var lattice [][]int
	core.EnumerateInstantiations(cfg.Template, func(inst query.Instantiation) bool {
		lattice = append(lattice, append([]int(nil), inst...))
		return true
	})
	rng.Shuffle(len(lattice), func(i, j int) { lattice[i], lattice[j] = lattice[j], lattice[i] })
	for i := 0; i < 2*p.liveOps; i++ {
		in.Stream = append(in.Stream, lattice[i%len(lattice)])
	}

	script := newMutationScript(g, rng)
	if err := writeFile(filepath.Join(dir, scriptFile), func(f *os.File) error {
		w := bufio.NewWriter(f)
		for i := 0; i < p.liveOps; i++ {
			data, err := graph.EncodeMutations(script.batch(p.batchOps))
			if err != nil {
				return err
			}
			w.Write(data)
			w.WriteByte('\n')
		}
		return w.Flush()
	}); err != nil {
		return err
	}

	// The restart log is written by the product's own writer, from a
	// script of its own that is valid against the base snapshot.
	wal, err := graph.OpenWAL(filepath.Join(dir, restartLog))
	if err != nil {
		return err
	}
	restart := newMutationScript(g, rng)
	for i := 0; i < p.restartBatches; i++ {
		if err := wal.Append(restart.batch(p.batchOps)); err != nil {
			wal.Close()
			return err
		}
	}
	return wal.Close()
}

// mutationScript generates batches that are valid when applied in order
// to the base graph it was built from: it tracks the node ids AddNode will
// be assigned and never removes the same base edge twice.
type mutationScript struct {
	g       *graph.Graph
	rng     *rand.Rand
	persons []graph.NodeID
	nextID  graph.NodeID
	removed map[[2]graph.NodeID]bool
}

func newMutationScript(g *graph.Graph, rng *rand.Rand) *mutationScript {
	return &mutationScript{
		g: g, rng: rng,
		persons: g.NodesByLabel("Person"),
		nextID:  graph.NodeID(g.NumNodes()),
		removed: make(map[[2]graph.NodeID]bool),
	}
}

func (s *mutationScript) person() graph.NodeID { return s.persons[s.rng.Intn(len(s.persons))] }

// batchPattern is the composition of every batch, one letter per
// mutation: y sets yearsOfExp, t retitles, e adds a recommendation edge,
// r removes an edge, and the pair nn adds a person and an edge from them.
// The composition is fixed so that every seed applies the same amount of
// each kind of work; the seed only picks the nodes and values.
const batchPattern = "yyyyyyyyytteeeeerrnn"

// batch returns the next n-mutation batch: mostly attribute writes on the
// attributes the templates filter on, a quarter new recommendation edges,
// some edge removals and a new person.
func (s *mutationScript) batch(n int) []graph.Mutation {
	ops := make([]graph.Mutation, 0, n)
	for i := 0; len(ops) < n; i++ {
		switch batchPattern[i%len(batchPattern)] {
		case 'y':
			ops = append(ops, graph.Mutation{Op: graph.MutSetAttr, Node: s.person(), Attr: "yearsOfExp", Value: graph.Int(int64(s.rng.Intn(31)))})
		case 't':
			// Retitle someone with a title that exists in the data.
			ops = append(ops, graph.Mutation{Op: graph.MutSetAttr, Node: s.person(), Attr: "title", Value: s.g.Attr(s.person(), "title")})
		case 'e':
			from, to := s.person(), s.person()
			for from == to {
				to = s.person()
			}
			ops = append(ops, graph.Mutation{Op: graph.MutAddEdge, From: from, To: to, Label: "recommend"})
		case 'r':
			ops = append(ops, s.removal())
		case 'n':
			if len(ops)+2 > n || batchPattern[(i+1)%len(batchPattern)] != 'n' {
				continue // the pair's second letter, or no room for the pair
			}
			ops = append(ops,
				graph.Mutation{Op: graph.MutAddNode, Label: "Person", Attrs: s.g.AttrPairs(s.person())},
				graph.Mutation{Op: graph.MutAddEdge, From: s.nextID, To: s.person(), Label: "recommend"})
			s.nextID++
		}
	}
	return ops
}

// removal picks a base recommend or coreview edge that no earlier batch
// removed.
func (s *mutationScript) removal() graph.Mutation {
	for {
		from := s.person()
		for _, e := range s.g.Out(from) {
			key := [2]graph.NodeID{from, e.To}
			if label := s.g.LabelOf(e.Label); label != "worksAt" && !s.removed[key] {
				s.removed[key] = true
				return graph.Mutation{Op: graph.MutRemoveEdge, From: from, To: e.To, Label: label}
			}
		}
	}
}

// opIDs names the requests in run order.
func (in *inputs) opIDs() []string {
	ids := make([]string, len(in.Ops))
	for i := range in.Ops {
		ids[i] = in.Ops[i].ID
	}
	return ids
}

// opIndex maps request IDs to their position in run order.
func (in *inputs) opIndex() map[string]int {
	byID := make(map[string]int, len(in.Ops))
	for i := range in.Ops {
		byID[in.Ops[i].ID] = i
	}
	return byID
}

// readInputs loads the ops file of a prepared directory.
func readInputs(dir string) (*inputs, error) {
	data, err := os.ReadFile(filepath.Join(dir, opsFile))
	if err != nil {
		return nil, err
	}
	in := new(inputs)
	if err := json.Unmarshal(data, in); err != nil {
		return nil, fmt.Errorf("%s: %w", opsFile, err)
	}
	return in, nil
}

// readScript loads live-mutate's per-pass mutation batches.
func readScript(dir string) ([][]graph.Mutation, error) {
	f, err := os.Open(filepath.Join(dir, scriptFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var batches [][]graph.Mutation
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		ops, err := graph.DecodeMutations(sc.Bytes())
		if err != nil {
			return nil, err
		}
		batches = append(batches, ops)
	}
	return batches, sc.Err()
}

func writeSnapshot(path string, g *graph.Graph) error {
	return writeFile(path, func(f *os.File) error { return graph.WriteSnapshot(f, g) })
}

// writeFile creates path, writes through fn and reports the first of the
// write, sync-less close errors (input files need no durability).
func writeFile(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
