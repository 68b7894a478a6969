// Package fairsqg generates subgraph queries with fairness and diversity
// guarantees, implementing the FairSQG framework of "Subgraph Query
// Generation with Fairness and Diversity Constraints" (ICDE 2022).
//
// Given an attributed directed graph G, a query template Q(u_o) whose
// search predicates carry range variables and whose edges may carry
// Boolean presence variables, and a set of disjoint node groups P with
// per-group coverage constraints, the library computes an ε-Pareto set of
// query instances: concrete queries whose answers trade off max-sum
// diversity δ(q, G) against the group-coverage quality f(q, P), such that
// every possible instance is ε-dominated by a returned one.
//
// # Quick start
//
//	g := fairsqg.NewGraph()
//	// ... add nodes and edges, then:
//	g.Freeze()
//
//	tpl, _ := fairsqg.ParseTemplate(`
//	template talent
//	node u_o Person title = "Director"
//	node u1 Person yearsOfExp >= $x1
//	edge u1 u_o recommend ?e1
//	output u_o
//	`)
//	tpl.BindDomains(g, fairsqg.DomainOptions{MaxValues: 8})
//
//	set := fairsqg.EqualOpportunity(
//	    fairsqg.GroupsByAttribute(g, "Person", "gender"), 100)
//
//	gen, _ := fairsqg.NewGenerator(&fairsqg.Config{
//	    G: g, Template: tpl, Groups: set, Eps: 0.05,
//	})
//	res, _ := gen.Bidirectional() // BiQGen
//	for _, v := range res.Set {
//	    fmt.Println(v.Q, v.Point.Div, v.Point.Cov)
//	}
//
// # Algorithms
//
// Four generation strategies are provided, all with the guarantees of the
// paper's Theorem 2 (correct ε-Pareto maintenance, size-bounded results):
//
//   - Generator.Enumerate (EnumQGen): exhaustive baseline.
//   - Generator.Refine (RfQGen): depth-first lattice refinement with
//     infeasibility pruning; converges to high-diversity instances first.
//   - Generator.Bidirectional (BiQGen): interleaved refine/relax search
//     with sandwich pruning; balanced convergence and the best runtime.
//   - Generator.Online (OnlineQGen): maintains a fixed-size ε-Pareto set
//     over an instance stream with bounded delay, enlarging ε only when
//     forced.
//
// Generator.ExactPareto (Kung's algorithm) and Generator.CBM (ε-constraint
// bisection) are the evaluation baselines. Generator.Run runs any batch
// algorithm by the name Algorithms lists, as the CLI and the server do.
//
// The algorithms ask two things of a query class: answers that shrink
// along refinement, and δ and f computed from the answer set alone. A
// regular path query (NewRPQTemplate: predicate-filtered sources, a path
// language whose alternation branches can be dropped, a hop-bound ladder)
// has both, so NewRPQConfig lowers one to a Config — a one-node carrier
// template spanning its lattice plus Config.Evaluator, which answers
// instances in place of the subgraph matcher — and it runs on the same
// Generator.
//
// # Performance
//
// Freezing a graph materializes typed per-attribute columns (with
// presence bitmaps) in place of per-node attribute maps, and builds a
// sorted permutation index for every (label, attribute) pair. Literal
// evaluation reads columns through interned attribute IDs, and candidate
// selection binary-searches the most selective literal's index instead of
// scanning the label, falling back to the scan for unselective ranges.
//
// Backtracking itself is selectivity-driven: candidate sets live in
// dense bitsets propagated to arc consistency before search, nodes are
// pre-screened by degree and neighborhood-label signatures (rejections
// counted in Stats.Matcher.SigPruned), and the search assigns the
// cheapest frontier variable first rather than following template order.
// Down the refinement lattice the propagation is incremental: every
// instance is handed the arc-consistent candidate sets of a verified
// ancestor — its parent where the walk has one (RfQGen, ParQGen, the
// enumeration prefix of EnumQGen, Kungs and CBM; OnlineQGen's working set,
// re-verified after a mutation as a walk down the lattice it spans), else
// the template's root, planned once per graph generation (BiQGen, stream
// arrivals) — its plan starts from those instead of the label populations
// and revises only the arcs the step touched, and it ends at exactly the
// from-scratch fixpoint (Stats.Matcher.ArcsRevised and ArcsInherited count
// both kinds, ScratchPlans the plans that did start from the labels: one
// per generation). An instance no walk hands a parent — a stream arrival,
// a re-verified member, an item of BiQGen's backward sweep — takes the most
// refined verified ancestor the run's memo holds (Stats.AncestorsFound) and
// searches within its answer like any child. An instance whose answer
// equals its parent's adopts the parent's score and coverage
// (Stats.AnswersShared). Config.DisableIncremental turns all of that off
// together with incVerify: the paper's naive verification.
//
// Each instance's answer set is computed on the calling goroutine by the
// run's match engine (MatchEngine). Every engine keeps a store bounded in
// bytes by its graph's size, with no knob: label+predicate candidate lists,
// reused across the many instances of one template that share bound
// literals, sit there beside whole answers and derived values. Candidate-list
// hits and misses are reported in Stats.Cache.
//
// How the matcher searches is one value, MatchSettings (Mode,
// MaxBacktrackNodes), embedded by Config and MatchEngineOptions as the
// field Settings; with Config.Engine injected the run takes the engine's,
// and Validate rejects a Config.Settings that disagrees. The backtracking
// search picks the cheapest frontier variable at each step, and candidate
// selection takes a sorted per-(label, attribute) index range when one is
// narrow enough and a linear label scan otherwise; neither has a switch.
// The tests check both against a brute-force enumeration. Access-path
// counts are reported in Stats.Matcher.IndexSelections and ScanSelections;
// a frozen graph's column and index footprint is available from
// Graph.Memory (GraphMemoryStats).
//
// Diversity scoring is exact by column and incremental: the default tuple
// distance compiles into per-graph feature tables; every column but free
// text sums exactly from one pass over the answer, with no pair loop; free
// text is evaluated in place by a bit-vector edit-distance kernel (cheaper
// per pair than a cache probe, so it is never cached; only a
// caller-supplied Config.Distance is memoized, in a run-private pair
// cache), and instances refined from a scored parent are re-scored by
// subtracting the removed matches' contributions rather than recomputing
// the O(n²) pair loop. Pair sums accumulate in fixed point,
// so scores are bit-identical to the exact recompute in every setting.
// For the same reason a large sampled or exact pair loop on the default
// distance splits across up to GOMAXPROCS goroutines with the same result
// at any count (Stats.ScoreSplits; Stats.Wall clocks each phase); a
// Config.Distance always runs on the calling goroutine.
//
//   - Config.DisableIncScore: the from-scratch scorer, kept as the
//     reference the delta path is bit-compared with (library field only).
//     Delta-path uses are counted in Stats.IncScores, the exact
//     number of distance evaluations in Stats.DistCache.Evals (hits and
//     misses are a custom distance's pair-cache traffic, 0 otherwise).
//   - Config.MaxPairs: pair-sampling threshold for very large answer
//     sets; 0 picks a default cap, negative forces exact scoring. It caps
//     only the pair loop: free-text columns and a Config.Distance.
//   - Config.Lambda / Config.LambdaSet: the relevance/distance mix;
//     LambdaSet lets an explicit 0 override the 0.5 default.
//
// NewMatchEngine exposes the engine directly for callers that evaluate
// instances outside a Generator; it is safe for concurrent use and honors
// context cancellation.
//
// Frozen graphs serialize to versioned, CRC-checked binary snapshots
// (WriteGraphSnapshot / ReadGraphSnapshot) that restore the columnar
// layout and sorted indexes directly — loading a snapshot skips Freeze
// entirely, which is how the fairsqgd server's -snapshot-dir warm restart
// and the .fsnap files written by graphgen/fairsqg get large graphs back
// into memory at I/O speed. Snapshots are a cache format: there is one
// snapshot version, readers reject any other (graph.ErrSnapshotVersion)
// and corrupt files with descriptive errors, and TSV/JSON remain the
// durable interchange formats. ReadGraphFile loads any of the three by
// file extension.
//
// Generation also scales horizontally: the fairsqgd daemon runs as a
// standalone server, a cluster worker, or a coordinator (-role) that
// fans Generator.Parallel's lattice slabs out across worker processes,
// shipping graphs as snapshots and merging the per-slab ε-Pareto
// archives deterministically — the distributed result equals the
// single-process one. See README.md ("Running a cluster") and
// DESIGN.md §5f.
//
// Frozen graphs also mutate without a rebuild: ApplyMutations applies an
// atomic batch (add/remove nodes and edges, attribute writes) by
// copy-on-write, producing a new frozen generation that shares every
// untouched column and index with its base — orders of magnitude cheaper
// than re-parsing, with node IDs stable across generations. NewLiveGraph
// wraps the current generation behind retained references so readers
// keep a consistent graph while writers advance it, and OpenMutationLog
// / ReplayMutationLog persist batches to a CRC-framed write-ahead delta
// log beside the snapshot (the fairsqgd mutate endpoint's crash consistency).
// A Generator.Online run follows a mutating graph (OnlineOptions.Mutations),
// re-scoring its archive a lattice level at a time on every processor as
// generations land. See README.md ("Live graphs") and DESIGN.md §5h.
//
// Synthetic datasets mirroring the paper's evaluation graphs and the full
// experiment harness live in cmd/experiments; see DESIGN.md and
// EXPERIMENTS.md.
package fairsqg
