package fairsqg

import (
	"io"

	"fairsqg/internal/core"
	"fairsqg/internal/graph"
	"fairsqg/internal/groups"
	"fairsqg/internal/match"
	"fairsqg/internal/measure"
	"fairsqg/internal/pareto"
	"fairsqg/internal/query"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases form the stable public surface.
type (
	// Graph is an attributed directed graph G = (V, E, L, T).
	Graph = graph.Graph
	// NodeID identifies a graph node.
	NodeID = graph.NodeID
	// Value is a dynamically typed attribute value.
	Value = graph.Value
	// Op is a comparison operator for search predicates.
	Op = graph.Op
	// Stats summarizes a graph.
	GraphStats = graph.Stats
	// GraphMemoryStats reports a frozen graph's columnar-storage and
	// sorted-index footprint (fixed at Freeze).
	GraphMemoryStats = graph.MemoryStats
	// AttrID is an interned attribute name in one graph's dictionary.
	AttrID = graph.AttrID

	// Template is a query template Q(u_o) with variables.
	Template = query.Template
	// TemplateBuilder assembles templates programmatically.
	TemplateBuilder = query.Builder
	// DomainOptions controls value-ladder construction.
	DomainOptions = query.DomainOptions
	// Instance is a fully instantiated query.
	Instance = query.Instance
	// Instantiation assigns binding levels to template variables.
	Instantiation = query.Instantiation

	// Group is one node group with its coverage constraint.
	Group = groups.Group
	// Groups is an ordered set of disjoint groups.
	Groups = groups.Set

	// Point is an instance's (diversity, coverage) coordinates.
	Point = pareto.Point

	// Config is the generation configuration C = (G, Q(u_o), P, ε).
	Config = core.Config
	// Result is a generation outcome.
	Result = core.Result
	// Verified is an evaluated instance with its answer and coordinates.
	Verified = core.Verified
	// Stats aggregates generation work counters.
	Stats = core.Stats
	// Phase indexes Stats.Wall, the per-phase clocks; String names it.
	Phase = core.Phase
	// VerifyEvent describes one instance verification (trace hook).
	VerifyEvent = core.VerifyEvent

	// MatchEngine is the concurrent match engine: a goroutine-safe
	// evaluator that owns a store of candidate lists, answers and derived
	// values and evaluates each instance on its caller's goroutine. Every
	// run verifies on one; use NewMatchEngine for standalone instance
	// evaluation.
	MatchEngine = match.Engine
	// MatchEngineOptions configures NewMatchEngine.
	MatchEngineOptions = match.EngineOptions
	// MatchEngineStats aggregates engine work counters.
	MatchEngineStats = match.EngineStats
	// CacheStats reports an engine's candidate-list hits and misses.
	CacheStats = match.CacheStats
	// MatchSettings is how the matcher searches — semantics and backtrack
	// budget — embedded by Config and MatchEngineOptions as the field
	// Settings (in a composite literal:
	// Config{Settings: MatchSettings{Mode: Homomorphism, MaxBacktrackNodes: 10000}}).
	MatchSettings = match.Settings
	// PairCacheStats carries the pairwise-distance counters of
	// Stats.DistCache and MatchEngineStats.Dist: Evals is the exact number
	// of distance evaluations; Hits/Misses/Clears/Entries describe the pair
	// cache around a caller-supplied Config.Distance and read 0 for the
	// default tuple distance, which is evaluated directly.
	PairCacheStats = measure.PairCacheStats

	// InstanceStream feeds OnlineQGen.
	InstanceStream = core.InstanceStream
	// OnlineOptions parameterizes online generation.
	OnlineOptions = core.OnlineOptions
	// OnlineResult is the outcome of an online run.
	OnlineResult = core.OnlineResult
	// OnlineCheckpoint is a periodic online snapshot.
	OnlineCheckpoint = core.OnlineCheckpoint
	// CBMOptions parameterizes the ε-constraint baseline.
	CBMOptions = core.CBMOptions

	// Mutation is one graph mutation op (add/remove node or edge, set
	// attribute); a batch applies all-or-nothing via ApplyMutations or
	// LiveGraph.Apply.
	Mutation = graph.Mutation
	// MutOp selects a Mutation's operation.
	MutOp = graph.MutOp
	// ApplyResult reports what one applied mutation batch did.
	ApplyResult = graph.ApplyResult
	// AttrPair names one attribute value in a Mutation's AddNode op.
	AttrPair = graph.AttrPair
	// LiveGraph wraps a frozen graph with serialized mutation and
	// compaction; readers Acquire generation handles that stay immutable.
	LiveGraph = graph.Live
	// WALWriter appends mutation batches to a checksummed delta log.
	WALWriter = graph.WALWriter
	// WALReplay is the outcome of reading a delta log back.
	WALReplay = graph.WALReplay
	// MutationEvent announces a new graph generation to an online run.
	MutationEvent = core.MutationEvent
	// MutationSource feeds OnlineQGen graph mutation events.
	MutationSource = core.MutationSource
)

// Matching semantics, MatchSettings.Mode: Isomorphism (the zero value) maps
// query nodes to distinct graph nodes, Homomorphism lets two share one.
const (
	Isomorphism  = match.Isomorphism
	Homomorphism = match.Homomorphism
)

// Comparison operators for literals.
const (
	OpLT = graph.OpLT
	OpLE = graph.OpLE
	OpEQ = graph.OpEQ
	OpGE = graph.OpGE
	OpGT = graph.OpGT
)

// Wildcard is the "don't care" binding level.
const Wildcard = query.Wildcard

// Attribute value constructors.
var (
	// Num wraps a float as a Value.
	Num = graph.Num
	// Int wraps an integer as a Value.
	Int = graph.Int
	// Str wraps a string as a Value.
	Str = graph.Str
	// Bool wraps a boolean as a Value.
	Bool = graph.Bool
)

// Mutation operations.
const (
	MutAddNode    = graph.MutAddNode
	MutRemoveNode = graph.MutRemoveNode
	MutAddEdge    = graph.MutAddEdge
	MutRemoveEdge = graph.MutRemoveEdge
	MutSetAttr    = graph.MutSetAttr
)

// NewGraph returns an empty graph; add nodes and edges, then Freeze it.
func NewGraph() *Graph { return graph.New() }

// NewLiveGraph wraps a frozen graph for mutation: Apply produces new
// immutable generations copy-on-write, Compact re-freezes the overlay
// chain into a canonical layout without changing any cache coordinates.
func NewLiveGraph(g *Graph) *LiveGraph { return graph.NewLive(g) }

// ApplyMutations applies one batch to a frozen graph, returning the new
// generation (the input is unchanged) and a report. The batch validates
// against the evolving overlay and applies all-or-nothing.
func ApplyMutations(g *Graph, ops []Mutation) (*Graph, *ApplyResult, error) {
	return graph.ApplyBatch(g, ops)
}

// OpenMutationLog opens (creating if absent) a graph's delta log for
// appending mutation batches; see WALWriter.
func OpenMutationLog(path string) (*WALWriter, error) { return graph.OpenWAL(path) }

// ReplayMutationLog reads a delta log back; with repair set, a torn tail
// (crash mid-append) is truncated so the log is appendable again.
func ReplayMutationLog(path string, repair bool) (*WALReplay, error) {
	return graph.ReplayWAL(path, repair)
}

// EncodeMutations serializes a batch in the JSON wire form accepted by
// the server's mutate endpoint; DecodeMutations inverts it.
func EncodeMutations(ops []Mutation) ([]byte, error) { return graph.EncodeMutations(ops) }

// DecodeMutations parses the JSON wire form of a mutation batch.
func DecodeMutations(data []byte) ([]Mutation, error) { return graph.DecodeMutations(data) }

// GraphsEquivalent reports whether two frozen graphs describe the same
// logical graph — same live nodes, labels, attributes and edge multisets
// — regardless of physical layout (mutated overlay vs. fresh rebuild).
func GraphsEquivalent(a, b *Graph) error { return graph.Equivalent(a, b) }

// CheckGraphInvariants validates a frozen graph's internal consistency
// (CSR symmetry, index permutations, tombstone accounting); mutation and
// compaction tests run it after every generation change.
func CheckGraphInvariants(g *Graph) error { return graph.CheckInvariants(g) }

// ReadGraphJSON loads a graph from its JSON form and freezes it.
func ReadGraphJSON(r io.Reader) (*Graph, error) { return graph.ReadJSON(r) }

// WriteGraphJSON serializes a graph as JSON.
func WriteGraphJSON(w io.Writer, g *Graph) error { return graph.WriteJSON(w, g) }

// ReadGraphFile loads a graph file, format by case-insensitive extension:
// .fsnap is a binary snapshot, .json the JSON form, anything else TSV.
func ReadGraphFile(path string) (*Graph, error) { return graph.ReadFile(path) }

// ReadGraphTSV loads a graph from the tab-separated form and freezes it.
func ReadGraphTSV(r io.Reader) (*Graph, error) { return graph.ReadTSV(r) }

// WriteGraphTSV serializes a graph in the tab-separated form.
func WriteGraphTSV(w io.Writer, g *Graph) error { return graph.WriteTSV(w, g) }

// ReadGraphSnapshot loads a frozen graph from its binary snapshot form;
// unlike the TSV/JSON readers it restores columns and indexes directly
// without re-running Freeze.
func ReadGraphSnapshot(r io.Reader) (*Graph, error) { return graph.ReadSnapshot(r) }

// ReadGraphSnapshotFile loads a snapshot straight from a file, sizing the
// buffer from the file's length instead of growing through an io.Reader;
// prefer it over ReadGraphSnapshot when the snapshot is on disk.
func ReadGraphSnapshotFile(path string) (*Graph, error) { return graph.ReadSnapshotFile(path) }

// OpenGraphSnapshotMapped opens a snapshot file memory-mapped: the
// graph's frozen sections are served zero-copy from the page cache,
// making open time independent of graph size. The caller must Close the
// returned graph when done reading; see graph.OpenSnapshotMapped for the
// lifetime rules. Like the heap readers it accepts exactly one snapshot
// version; any other returns an error wrapping graph.ErrSnapshotVersion —
// rebuild the snapshot from the graph's TSV/JSON source.
func OpenGraphSnapshotMapped(path string) (*Graph, error) { return graph.OpenSnapshotMapped(path) }

// WriteGraphSnapshot serializes a frozen graph's exact in-memory layout
// as a versioned, checksummed, memory-mappable binary snapshot.
func WriteGraphSnapshot(w io.Writer, g *Graph) error { return graph.WriteSnapshot(w, g) }

// SummarizeGraph computes descriptive statistics of a frozen graph.
func SummarizeGraph(g *Graph) GraphStats { return graph.Summarize(g) }

// InduceSubgraph builds the frozen subgraph induced by a node set,
// returning it with the old→new ID mapping.
func InduceSubgraph(g *Graph, nodes []NodeID) (*Graph, map[NodeID]NodeID) {
	return graph.Induce(g, nodes)
}

// ParseTemplate reads a template from its textual form (see the package
// documentation for the grammar).
func ParseTemplate(src string) (*Template, error) { return query.ParseString(src) }

// FormatTemplate renders a template back into the textual form.
func FormatTemplate(t *Template) string { return query.Format(t) }

// NewTemplate starts a template builder.
func NewTemplate(name string) *TemplateBuilder { return query.NewBuilder(name) }

// GroupsByAttribute partitions the nodes with a label into one group per
// distinct value of an attribute. The groups have no Members map: they read
// the graph's attribute row, through Size and Has.
func GroupsByAttribute(g *Graph, label, attr string) Groups {
	return groups.ByAttribute(g, label, attr)
}

// GroupsByValues builds groups for the listed attribute values only.
func GroupsByValues(g *Graph, label, attr string, values ...string) Groups {
	return groups.ByValues(g, label, attr, values...)
}

// EqualOpportunity assigns the same coverage constraint to every group.
func EqualOpportunity(s Groups, c int) Groups { return groups.EqualOpportunity(s, c) }

// SplitCoverageEvenly distributes a total coverage budget evenly.
func SplitCoverageEvenly(s Groups, total int) Groups { return groups.SplitEvenly(s, total) }

// DisparateImpact configures the "80% rule": the majority group requires c
// and every other group at least ceil(ratio·c).
func DisparateImpact(s Groups, majority string, c int, ratio float64) (Groups, error) {
	return groups.DisparateImpact(s, majority, c, ratio)
}

// Generator runs the FairSQG algorithms over one configuration.
type Generator struct {
	runner *core.Runner
}

// NewGenerator validates the configuration and prepares a generator.
func NewGenerator(cfg *Config) (*Generator, error) {
	r, err := core.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	return &Generator{runner: r}, nil
}

// Algorithms lists the names Generator.Run accepts: the batch algorithms
// (OnlineQGen, which needs a stream, is Generator.Online).
func Algorithms() []string { return core.AlgorithmNames() }

// Run runs the batch algorithm with the given name; workers is Parallel's.
func (g *Generator) Run(name string, workers int) (*Result, error) {
	return g.runner.Run(name, workers)
}

// Enumerate runs the naive EnumQGen baseline: verify the full instance
// space, then reduce it to an ε-Pareto set.
func (g *Generator) Enumerate() (*Result, error) { return g.runner.EnumQGen() }

// Refine runs RfQGen: depth-first "refine as always" exploration of the
// instance lattice with infeasibility pruning and incremental verification.
func (g *Generator) Refine() (*Result, error) { return g.runner.RfQGen() }

// Bidirectional runs BiQGen: interleaved forward-refinement and
// backward-relaxation exploration with sandwich pruning.
func (g *Generator) Bidirectional() (*Result, error) { return g.runner.BiQGen() }

// Parallel runs ParQGen: the instance lattice is partitioned into slabs
// along the widest variable and explored concurrently with the RfQGen
// strategy (the paper's future-work direction). workers <= 0 selects
// GOMAXPROCS.
func (g *Generator) Parallel(workers int) (*Result, error) { return g.runner.ParQGen(workers) }

// ExactPareto enumerates the instance space and returns the exact Pareto
// instance set via Kung's algorithm.
func (g *Generator) ExactPareto() (*Result, error) { return g.runner.Kungs() }

// CBM runs the ε-constraint bisection baseline.
func (g *Generator) CBM(opts CBMOptions) (*Result, error) { return g.runner.CBM(opts) }

// Online runs OnlineQGen over an instance stream, maintaining a fixed-size
// ε-Pareto set with a small, monotonically adjusted ε.
func (g *Generator) Online(stream InstanceStream, opts OnlineOptions) (*OnlineResult, error) {
	return g.runner.OnlineQGen(stream, opts)
}

// AllFeasible verifies the full instance space and returns every feasible
// instance — the reference set for quality indicators.
func (g *Generator) AllFeasible() ([]*Verified, error) { return g.runner.AllFeasible() }

// NewRandomStream emits deterministic random instantiations of a template.
func NewRandomStream(t *Template, count int, seed int64) InstanceStream {
	return core.NewRandomStream(t, count, seed)
}

// NewSliceStream replays a fixed list of instances.
func NewSliceStream(items []*Instance) InstanceStream {
	return &core.SliceStream{Items: items}
}

// Answer evaluates a single instance against a graph and returns its match
// set q(u_o, G) under subgraph isomorphism.
func Answer(g *Graph, q *Instance) []NodeID {
	return match.New(g).EvalOutput(q)
}

// NewMatchEngine returns a concurrent, goroutine-safe instance evaluator
// over a frozen graph; its output-node results are identical to Answer's.
func NewMatchEngine(g *Graph, opts MatchEngineOptions) *MatchEngine {
	return match.NewEngine(g, opts)
}

// Feasible reports whether an answer meets every coverage constraint.
func Feasible(set Groups, answer []NodeID) bool { return measure.Feasible(set, answer) }

// Coverage computes the group-coverage quality f(q, P) of an answer.
func Coverage(set Groups, answer []NodeID) float64 { return measure.Coverage(set, answer) }

// EpsIndicator computes the normalized ε-indicator I_ε = 1 − ε_m/ε of an
// approximation set against a reference set.
func EpsIndicator(approx, ref []Point, eps float64) float64 {
	return pareto.EpsIndicator(approx, ref, eps)
}

// RIndicator computes the preference-weighted indicator I_R.
func RIndicator(set []Point, lambdaR, divMax, covMax float64) float64 {
	return pareto.RIndicator(set, lambdaR, divMax, covMax)
}
