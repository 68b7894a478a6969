// Package core implements the FairSQG query-generation algorithms: the
// naive EnumQGen, the exact-Pareto Kungs baseline, the refinement-driven
// RfQGen, the bidirectional BiQGen with sandwich pruning, the fixed-size
// OnlineQGen, and the ε-constraint CBM baseline. All operate on one shared
// configuration C = (G, Q(u_o), P, ε).
package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"fairsqg/internal/graph"
	"fairsqg/internal/groups"
	"fairsqg/internal/match"
	"fairsqg/internal/measure"
	"fairsqg/internal/pareto"
	"fairsqg/internal/query"
)

// DefaultMaxPairs is the pairwise-evaluation cap selected when
// Config.MaxPairs is zero; pass a negative MaxPairs for exact scoring.
const DefaultMaxPairs = 200000

// Config is the query-generation configuration C = (G, Q(u_o), P, ε)
// together with the evaluation knobs shared by all algorithms.
type Config struct {
	G        *graph.Graph
	Template *query.Template
	Groups   groups.Set
	// Eps is the ε-dominance tolerance (> 0).
	Eps float64

	// Ctx, when non-nil, bounds the run: every algorithm polls it between
	// verifications and hands it to the matcher so deadline expiry or
	// cancellation also aborts an in-flight instance evaluation. A cancelled
	// run returns the context's error instead of a partial result.
	Ctx context.Context
	// Engine, when non-nil, routes verification through this externally
	// owned match engine instead of a per-run one: the run takes the
	// engine's Settings (Validate rejects a non-zero Config.Settings that
	// disagrees with them). The engine — and crucially its candidate cache
	// and its store of answers and scoring structures (match.Store) —
	// persists across runs, which is how a long-lived service pays for one
	// generation once across jobs; a run-owned engine never consults a
	// store. The engine's graph must be G, and the per-run Stats report the
	// engine's cumulative (not per-run) counters.
	Engine *match.Engine
	// Evaluator, when non-nil, answers every instance in place of the match
	// engine (see Evaluator); it excludes Engine and ExtraOutputs. Relevance
	// still defaults to the degree relevance of the output node's label.
	Evaluator Evaluator

	// Settings is how the matcher searches: semantics, variable order,
	// backtrack budget and candidate access path (see match.Settings).
	match.Settings
	// ExtraOutputs names additional template nodes whose match sets join
	// the answer (the paper's multiple-output-nodes extension): the
	// diversity and coverage objectives are computed over the union of
	// q(u_o, G) and q(u, G) for each named node. Each named node must be
	// connected to the output node through fixed edges (Template
	// AlwaysActive) so the union stays refinement-monotone and the
	// pruning lemmas keep holding. The candidate-bound infeasibility
	// check is disabled in this mode.
	ExtraOutputs []string
	// Lambda balances relevance against dissimilarity in δ. The zero value
	// selects the default 0.5; set LambdaSet to request λ = 0 (the
	// pure-relevance objective) explicitly.
	Lambda float64
	// LambdaSet marks Lambda as explicitly chosen, distinguishing a
	// requested λ = 0 from an unset field.
	LambdaSet bool
	// Relevance overrides the default degree-based relevance r(u_o, ·).
	// ParQGen calls it and Distance from several goroutines at once;
	// re-verification and δ's split pair loops never do.
	Relevance measure.RelevanceFunc
	// Distance overrides the default tuple edit distance d(·,·). The
	// function must be pure and symmetric: distances are memoized in a
	// pair cache and reused by the incremental scorer.
	Distance measure.DistanceFunc
	// DistanceAttrs restricts the default tuple distance to these
	// attributes (nil means all attributes of G).
	DistanceAttrs []string
	// MaxPairs caps pairwise distance evaluations per instance: 0 selects
	// the default cap (DefaultMaxPairs), a negative value requests exact
	// scoring with no cap, and a positive value caps evaluations at that
	// many sampled pairs. Only a pair loop samples: the default distance's
	// free-text columns or a custom Distance; the others are exact.
	MaxPairs int
	// DisableIncremental forces from-scratch verification — no parent match
	// set, no ancestor's (or the root's) matcher domains, no shared answer —
	// for every algorithm: the ablation, and the paper's naive EnumQGen.
	DisableIncremental bool
	// DisableSandwich turns off BiQGen's sandwich pruning (ablation).
	DisableSandwich bool
	// DisableBoundPrune turns off the cheap infeasibility check that
	// rejects an instance when the per-group counts of its arc-consistent
	// candidate superset already violate a constraint (ablation).
	DisableBoundPrune bool
	// DisableIncScore forces every diversity evaluation to run from
	// scratch instead of deriving a child's score from its verified
	// parent's (the subset-delta path exploiting Lemma 2). Results are
	// bit-identical in both settings — both paths accumulate the same
	// fixed-point pair units — so the from-scratch scorer is the reference
	// the incremental-scoring tests compare against.
	DisableIncScore bool

	// OnVerified, when set, is invoked after every instance verification —
	// the hook behind the anytime-quality experiments (Fig. 9(e), 11(b)).
	OnVerified func(ev VerifyEvent)
}

// Evaluator computes the answers of a run that does not match subgraphs: the
// template is then only a lattice, variables and ladders whose meaning the
// evaluator owns (internal/rpq lowers RPQ templates this way). Answers must
// shrink along refinement (Lemma 2: every pruning rule rests on it) and
// belong to one generation of G, so OnlineQGen takes no MutationSource with
// one. ParQGen's workers call Answer concurrently.
type Evaluator interface {
	// Answer returns q's answer in ascending order; one cut short by ctx, the
	// run's, is discarded whatever it holds.
	Answer(ctx context.Context, q *query.Instance) []graph.NodeID
	// Population is the size of the node set answers are drawn from: it
	// replaces |V_uo| as δ's normalizer.
	Population() int
}

// VerifyEvent describes one instance verification.
type VerifyEvent struct {
	// Seq is the 1-based verification sequence number.
	Seq int
	// Instance is the verified instance.
	Instance *query.Instance
	// Point holds (δ, f); valid only when Feasible.
	Point pareto.Point
	// Feasible reports whether the instance meets all coverage constraints.
	Feasible bool
	// Matches is |q(G)|.
	Matches int
}

// Validate checks the configuration; algorithms call it on entry.
func (c *Config) Validate() error {
	if c.G == nil || !c.G.Frozen() {
		return fmt.Errorf("core: config needs a frozen graph")
	}
	if c.Template == nil {
		return fmt.Errorf("core: config needs a template")
	}
	if err := c.Template.Validate(); err != nil {
		return err
	}
	for i := range c.Template.Vars {
		v := &c.Template.Vars[i]
		if v.Kind == query.RangeVar && len(v.Ladder) == 0 {
			return fmt.Errorf("core: range variable %q has no value ladder; call Template.BindDomains", v.Name)
		}
	}
	if len(c.Groups) == 0 {
		return fmt.Errorf("core: config needs at least one group")
	}
	if err := c.Groups.Validate(); err != nil {
		return err
	}
	if !(c.Eps > 0 && c.Eps < math.Inf(1)) {
		return fmt.Errorf("core: eps must be positive and finite, got %g", c.Eps)
	}
	if c.Engine != nil {
		if c.Engine.Graph() != c.G {
			return fmt.Errorf("core: config engine is bound to a different graph")
		}
		if es := c.Engine.Settings(); c.Settings != (match.Settings{}) && c.Settings != es {
			return fmt.Errorf("core: config settings %+v differ from the injected engine's %+v; "+
				"every evaluation runs on the engine, so set them there (or leave Config.Settings zero)", c.Settings, es)
		}
	}
	if c.Evaluator != nil && (c.Engine != nil || len(c.ExtraOutputs) > 0) {
		return fmt.Errorf("core: config evaluator answers in place of the matcher; it excludes Engine and ExtraOutputs")
	}
	if !(c.Lambda >= 0 && c.Lambda <= 1) {
		return fmt.Errorf("core: lambda must be in [0,1], got %g", c.Lambda)
	}
	if len(c.ExtraOutputs) > 0 {
		alwaysActive := map[int]bool{}
		for _, ni := range c.Template.AlwaysActive() {
			alwaysActive[ni] = true
		}
		for _, name := range c.ExtraOutputs {
			ni := c.Template.Node(name)
			if ni < 0 {
				return fmt.Errorf("core: extra output %q is not a template node", name)
			}
			if ni == c.Template.Output {
				return fmt.Errorf("core: extra output %q is already the output node", name)
			}
			if !alwaysActive[ni] {
				return fmt.Errorf("core: extra output %q must be connected to the output node via fixed edges; "+
					"a node behind an edge variable can activate mid-refinement, which breaks the union's monotonicity", name)
			}
		}
	}
	return nil
}

// Stats aggregates the work an algorithm performed.
type Stats struct {
	// Spawned counts instances generated (lattice nodes touched).
	Spawned int
	// Verified counts instances actually evaluated against G.
	Verified int
	// Feasible counts verified instances meeting all constraints.
	Feasible int
	// Pruned counts instances skipped without verification: the children
	// of an instance found infeasible (infeasibility backtracking) and the
	// instances inside a sandwich bound.
	Pruned int
	// SandwichPairs counts sandwich bounds recorded (BiQGen only).
	SandwichPairs int
	// IncScores counts diversity evaluations served by the subset-delta
	// incremental path instead of a from-scratch pair loop (free-text columns
	// or a custom Distance; without one, only feasible AnswersShared).
	IncScores int
	// AnswersShared counts verifications whose answer equalled the verified
	// parent's and adopted its record — matches, feasibility, point and
	// scorer state — instead of counting and scoring the same set again; the
	// feasible ones are in IncScores too.
	AnswersShared int
	// AncestorsFound counts verifications no walk handed a parent — stream
	// arrivals, re-scored working sets, BiQGen's backward sweep — that took
	// one from the run's memo (Runner.parentOf) and inherited from it.
	AncestorsFound int
	// AnswersReused counts verifications whose answer an earlier run had left
	// in the injected engine's store (match.Engine.Answer): no plan, no
	// search. DerivedReused counts the scoring structures — distance features,
	// degree relevance — taken from it. Both are 0 on a run-owned engine.
	AnswersReused int
	DerivedReused int
	// ScoreSplits counts diversity evaluations whose pair loop ran on more
	// than one goroutine (measure.Diversity.Splits).
	ScoreSplits int
	// Wall is the time taken in each Phase, summed over goroutines: clocks.
	Wall [numPhases]time.Duration
	// Matcher carries the matcher counters of the engine the run evaluated
	// on (and of those Retarget replaced): an injected Config.Engine's are
	// its totals over every run on it. Wall holds the run's own clocks.
	Matcher match.Stats
	// Cache counts the candidate-list lookups of the engines the run
	// evaluated on (Retarget's included, like Matcher).
	Cache match.CacheStats
	// DistCache.Evals is the exact number of pairwise distance evaluations
	// of this run's pair loops (the default distance's free-text columns, or
	// a Config.Distance). The default distance is evaluated directly, so the
	// other counters read 0; with a Config.Distance they report the
	// run-private pair cache that memoizes it.
	DistCache measure.PairCacheStats
}

// Add folds another run's (a ParQGen worker's, a slab's) counters into s.
// Every field of Stats is summed here and nowhere else.
func (s *Stats) Add(o Stats) {
	s.Spawned += o.Spawned
	s.Verified += o.Verified
	s.Feasible += o.Feasible
	s.Pruned += o.Pruned
	s.SandwichPairs += o.SandwichPairs
	s.IncScores += o.IncScores
	s.AnswersShared += o.AnswersShared
	s.AncestorsFound += o.AncestorsFound
	s.AnswersReused += o.AnswersReused
	s.DerivedReused += o.DerivedReused
	s.ScoreSplits += o.ScoreSplits
	for p, d := range o.Wall {
		s.Wall[p] += d
	}
	s.Matcher.Add(o.Matcher)
	s.Cache.Hits += o.Cache.Hits
	s.Cache.Misses += o.Cache.Misses
	s.Cache.Evictions += o.Cache.Evictions
	s.Cache.Entries += o.Cache.Entries
	s.DistCache.Evals += o.DistCache.Evals
	s.DistCache.Hits += o.DistCache.Hits
	s.DistCache.Misses += o.DistCache.Misses
	s.DistCache.Clears += o.DistCache.Clears
	s.DistCache.Entries += o.DistCache.Entries
}

// Phase indexes Stats.Wall: the match engine's planning (candidate sets to
// their arc-consistent fixpoint, the bound-pruning tally of the output's
// candidates included) and search, scoring δ, Spawn's refinement step,
// OnlineQGen's re-verification of its working set on a mutated generation,
// which holds the planning, searching, scoring and counting it does,
// counting an answer per group for feasibility and coverage, one sample per
// verification, deriving the scoring functions and group index from a
// generation (NewRunner, Retarget), and offering a verified instance to the
// run's archive, one sample per offer.
type Phase int

const (
	PhasePlan Phase = iota
	PhaseSearch
	PhaseScore
	PhaseSpawn
	PhaseReverify
	PhaseCover
	PhaseDerive
	PhaseUpdate
	numPhases
)

var phaseNames = [numPhases]string{"plan", "search", "score", "spawn", "reverify", "cover", "derive", "update"}

func (p Phase) String() string { return phaseNames[p] }

// Verified is an evaluated instance: its answer and quality coordinates.
type Verified struct {
	Q *query.Instance
	// Matches is the answer: q(u_o, G), or in multi-output mode the union
	// of the per-node match sets.
	Matches  []graph.NodeID
	Point    pareto.Point
	Feasible bool
	// PerNode holds each output node's match set in multi-output mode
	// (keyed by template node index); nil otherwise.
	PerNode map[int][]graph.NodeID
	// score carries the diversity scorer's reusable state (relevance sum,
	// fixed-point pair sum and per-node contribution sums S(v)); children
	// whose matches subset this instance's re-score from the difference.
	// nil when the instance was sampled or infeasible.
	score *measure.ScoreState
}

// Result is the outcome of a generation run.
type Result struct {
	// Set is the computed ε-Pareto instance set (or exact Pareto set for
	// Kungs), ordered by decreasing diversity.
	Set []*Verified
	// Eps is the tolerance the set satisfies; for OnlineQGen this is the
	// final, possibly enlarged ε.
	Eps float64
	// Stats aggregates the run's work counters.
	Stats Stats
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

// Points extracts the quality coordinates of the result set.
func (r *Result) Points() []pareto.Point {
	ps := make([]pareto.Point, len(r.Set))
	for i, v := range r.Set {
		ps[i] = v.Point
	}
	return ps
}

// algorithms is the one table of batch strategies: the names a job spec or
// the CLI's -alg may ask for and how each runs on a prepared runner (workers
// is ParQGen's fan-out). OnlineQGen, which needs a stream, is not in it.
var algorithms = map[string]func(r *Runner, workers int) (*Result, error){
	"enum":  func(r *Runner, _ int) (*Result, error) { return r.EnumQGen() },
	"rf":    func(r *Runner, _ int) (*Result, error) { return r.RfQGen() },
	"bi":    func(r *Runner, _ int) (*Result, error) { return r.BiQGen() },
	"par":   (*Runner).ParQGen,
	"kungs": func(r *Runner, _ int) (*Result, error) { return r.Kungs() },
	"cbm":   func(r *Runner, _ int) (*Result, error) { return r.CBM(CBMOptions{}) },
}

// AlgorithmNames lists the names Run accepts, sorted.
func AlgorithmNames() []string {
	names := make([]string, 0, len(algorithms))
	for name := range algorithms {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// CheckAlgorithm returns nil for a name Run accepts, else the error that
// lists them: what a caller taking the name from outside checks up front.
func CheckAlgorithm(name string) error {
	if algorithms[name] == nil {
		return fmt.Errorf("core: unknown algorithm %q (want %s)", name, strings.Join(AlgorithmNames(), ", "))
	}
	return nil
}

// Run runs the named algorithm.
func (r *Runner) Run(name string, workers int) (*Result, error) {
	if err := CheckAlgorithm(name); err != nil {
		return nil, err
	}
	return algorithms[name](r, workers)
}
