// Package repro is a from-scratch Go implementation of
//
//	Dan Olteanu, Jiewen Huang, Christoph Koch:
//	"Approximate Confidence Computation in Probabilistic Databases",
//	ICDE 2010
//
// — the d-tree algorithm for deterministic approximate probability
// computation with error guarantees, together with every substrate its
// evaluation depends on: a propositional-formula layer over discrete
// random variables, a lineage-carrying probabilistic-database engine,
// the Karp-Luby / Dagum-Karp-Luby-Ross Monte Carlo baseline, the SPROUT
// exact baselines for tractable queries, and the TPC-H / random-graph /
// social-network workloads of the paper's experiments.
//
// This root package re-exports the main entry points; the
// implementation lives in the internal packages:
//
//	internal/formula  — variables, clauses, DNFs, probability spaces,
//	                    and the hash-consed fragment cache
//	internal/core     — d-tree compilation, bounds, ε-approximation
//	internal/engine   — the unified, cancellable Evaluator API: the
//	                    d-tree evaluator (core.Options itself, exact at
//	                    Eps 0) and the Monte Carlo baseline
//	internal/workpool — bounded worker pools (one per DB, plus a
//	                    process-wide default for DB-less batches)
//	                    driving batch conf() fan-out
//	internal/mc       — Karp-Luby estimator, DKLR stopping rule (aconf)
//	internal/pdb      — probabilistic relations, positive RA, and the
//	                    parallel batch conf() operator
//	internal/plan     — the query subsystem: logical plan IR (incl. the
//	                    TopK/Threshold ranking roots), the safe/IQ/d-tree
//	                    planner, and the pipelined streaming operator
//	                    runtime
//	internal/rank     — anytime multi-answer ranking: top-k and
//	                    threshold schedulers over resumable d-tree
//	                    refiners (bound separation instead of full
//	                    evaluation)
//	internal/obs      — the observability layer: the per-DB metrics
//	                    registry (counters, gauges, bounded histograms)
//	                    every stage records into, and the per-query
//	                    EXPLAIN ANALYZE trace (Prepared.Analyze,
//	                    WithTrace)
//	internal/sprout   — safe plans and IQ inequality scans
//	internal/tpch     — probabilistic TPC-H generator and query suite
//	internal/graphs   — random graphs and social networks
//	internal/exp      — the figure-regeneration harness
//
// # The DB / Session / Query façade
//
// The public API is organized around three nouns, the way SPROUT
// exposes confidence computation inside MayBMS rather than as loose
// algorithm entry points:
//
//   - DB — the long-lived root: the probability space, the registered
//     relations, the pool of hash-consing clause interners, and a
//     private worker pool (db.Pool().Resize sizes it per DB).
//     NewDB(space, relations...).
//
//   - Session — per-client scope: a fragment cache, a default Budget, a
//     default Evaluator. db.Session(WithEps(1e-3), WithBudget(...),
//     WithSharedFragCache(...), ...).
//
//   - Query — the fluent builder compiled to the plan IR with
//     build-time validation: sess.Query("R").Select(...).Join(...).
//     GroupLineage(...).TopK(10). Run(ctx) streams the answers as an
//     iter.Seq2[Answer, error]; on a ranked lineage-route query each
//     answer is yielded the moment its membership is proven, before
//     refinement of the rest finishes.
//
//     db := repro.NewDB(space, relations...)
//     sess := db.Session(repro.WithEps(1e-3))
//     q := sess.Query("R").Join(sess.Query("S"), 1, 0).GroupLineage(3).TopK(10)
//     for a, err := range q.Run(ctx) {
//     if err != nil { ... }
//     fmt.Println(a.Vals, a.P)
//     }
//
// Build-time failures (unregistered relations, empty projections,
// nested ranking operators, ...) surface as BuildErrors from Build or
// the first Run, never as planner panics.
//
// Pre-built IR (such as the TPC-H catalog) runs through the façade via
// sess.Query(node); the planner validates it at Build (a malformed tree
// is a BuildError with Op "Query"). Outside a DB, the Evaluator menu —
// ApproxEval (exact at its zero Eps), MonteCarloEval — computes the
// confidence of one lineage DNF: ApproxEval{Eps: 0.01, Kind:
// Absolute}.Evaluate(ctx, space, dnf).
//
// See README.md for a tour and the figure-regeneration commands, and
// bench/README.md for the benchmark.
package repro

import (
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/formula"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/serve"
)

// Core formula types.
type (
	// Space is a finite probability distribution defined by independent
	// discrete random variables.
	Space = formula.Space
	// Var identifies a random variable.
	Var = formula.Var
	// Atom is an atomic event "Var = Val".
	Atom = formula.Atom
	// Clause is a consistent conjunction of atomic events.
	Clause = formula.Clause
	// DNF is a disjunction of clauses.
	DNF = formula.DNF
)

// Unified confidence-engine types: one cancellable API over the whole
// algorithm menu, with subformula memoization.
type (
	// ErrorKind selects absolute or relative approximation.
	ErrorKind = core.ErrorKind
	// Evaluator is the single confidence-computation entry point.
	Evaluator = engine.Evaluator
	// Budget bounds a session's queries or a MonteCarloEval.
	Budget = engine.Budget
	// EvalResult is the unified evaluation outcome.
	EvalResult = engine.Result
	// ApproxEval evaluates an ε-approximation with error guarantees;
	// Eps 0, its zero value, evaluates exactly by exhaustive d-tree
	// compilation.
	ApproxEval = engine.Approx
	// MonteCarloEval is the Karp-Luby/DKLR (ε, δ) baseline.
	MonteCarloEval = engine.MonteCarlo
	// FragCache is the hash-consed fragment memo table shared across
	// evaluations of one probability space: prepared leaf fragments
	// (normalized form, heuristic bounds, decomposition step) for
	// ε > 0, exact subformula probabilities for exact evaluation.
	FragCache = formula.FragCache
)

// Query-planner types: one logical plan IR, routed to safe plans, IQ
// sorted scans, or the lineage pipeline plus a d-tree evaluator.
type (
	// PlanNode is a logical plan operator (Scan, Select, EquiJoin,
	// ThetaJoin, Project, GroupLineage).
	PlanNode = plan.Node
	// Plan is a routed query: routing decision plus executor.
	Plan = plan.Plan
	// PlanRoute identifies the chosen execution path.
	PlanRoute = plan.Route
	// TopKNode is the plan root keeping only the K most probable
	// answers (exact sort on structural routes, anytime scheduler on
	// the lineage route).
	TopKNode = plan.TopK
	// ThresholdNode is the plan root keeping the answers with P ≥ Tau.
	ThresholdNode = plan.Threshold
)

// Observability types: the per-DB metrics registry's snapshot and the
// per-query EXPLAIN ANALYZE trace (see DB.Snapshot, WithTrace,
// Prepared.Analyze).
type (
	// MetricsSnapshot is a frozen registry: the flat, JSON-marshalable
	// export shape (DB.Snapshot, DB.PublishExpvar). The traffic of a
	// stretch of work is db.Snapshot().Sub(before).
	MetricsSnapshot = obs.Snapshot
	// QueryTrace is one query execution's EXPLAIN ANALYZE trace
	// (Prepared.Analyze, WithTrace): routing, per-stage timings,
	// per-answer refinement outcomes, cache traffic. Text renders it
	// deterministically; String with timings.
	QueryTrace = obs.QueryTrace
	// CacheStats is the unified cache-statistics shape every cache
	// (FragCache, Interner) reports from its CacheStats method: Hits,
	// Misses, Entries.
	CacheStats = obs.CacheStats
	// HistogramSnapshot is a frozen power-of-two histogram.
	HistogramSnapshot = obs.HistogramSnapshot
)

// Serving-layer types: the long-lived query service in front of the
// façade (see NewServer) — SSE answer streaming at membership-proof
// time, session affinity with pinned caches, admission control with
// documented Eps degradation, /metrics and per-query trace endpoints.
type (
	// ServeConfig tunes a query server (precision defaults, degradation
	// knob, admission thresholds, session TTL, warm fragment cache).
	ServeConfig = serve.Config
	// QueryServer is the service itself: Handler to mount on any
	// net/http server, Shutdown to drain it.
	QueryServer = serve.Server
	// ServeRequest is the POST /v1/query body: session name, optional
	// explicit Eps and budget, and the wire query IR.
	ServeRequest = serve.Request
	// ServeNode is one wire query operator (exactly one field set),
	// mirroring the fluent builder one-to-one.
	ServeNode = serve.Node
	// ServeBudget is the wire form of Budget.
	ServeBudget = serve.Budget
	// ServeMeta / ServeAnswer / ServeSummary are the stream's event
	// payloads (meta, answer, done).
	ServeMeta    = serve.Meta
	ServeAnswer  = serve.Answer
	ServeSummary = serve.Summary
	// ServeMetrics is the serving-layer registry (admission outcomes,
	// degradations, session churn, stream latencies), exported on
	// GET /metrics next to the engine's MetricsSnapshot.
	ServeMetrics = obs.ServeMetrics
	// ServeSnapshot is a frozen ServeMetrics registry.
	ServeSnapshot = obs.ServeSnapshot
	// ServeSessionInfo is one row of GET /v1/sessions.
	ServeSessionInfo = serve.SessionInfo
)

// Serving-layer entry points.
var (
	// FragCache.Save / LoadFragCache persist a prepared-fragment cache
	// across process restarts (gob, version-stamped and
	// CRC32-checksummed; a stale, truncated or corrupt stream loads as
	// an empty cache — a cold start, not an error). Wire a loaded cache
	// into ServeConfig.SharedFrags (or any session via
	// WithSharedFragCache) to warm-start leaf preparation.
	LoadFragCache = formula.LoadFragCache
	// LoadFragCacheFile is LoadFragCache over a file path (a missing
	// file is a silent cold start); FragCache.SaveFile is its crash-safe
	// writing counterpart (temp file + rename, so a kill mid-save leaves
	// the previous snapshot intact).
	LoadFragCacheFile = formula.LoadFragCacheFile
)

// Fault isolation and chaos types: panic containment and deterministic
// fault injection (see the README's Robustness section). Production
// code never touches these — a nil injector costs a single nil check
// per probe site.
type (
	// FaultInjector is the seeded, deterministic fault injector: arm it
	// with WithInjector (per session) or ServeConfig.Inject (whole
	// daemon) and it fires configured faults — panics, errors, spurious
	// cancellations, latency — at the named chaos sites. The outcome of
	// the k-th firing at a site is a pure function of (seed, site, k).
	FaultInjector = fault.Injector
	// FaultSiteConfig is one site's fault probabilities.
	FaultSiteConfig = fault.SiteConfig
	// PanicError is a recovered panic promoted into the error plumbing:
	// the panic value, the goroutine stack at capture, the containment
	// site, and the query it failed. Every contained panic — a workpool
	// task, a refinement step, a serving-layer stream — surfaces as one
	// of these through ordinary error returns.
	PanicError = fault.PanicError
)

// Fault-layer entry points.
var (
	// NewFaultInjector returns a disarmed injector; Configure sites to
	// arm it.
	NewFaultInjector = fault.NewInjector
	// ErrFaultInjected marks errors synthesized by a FaultInjector
	// (errors.Is-able through every wrapping layer).
	ErrFaultInjected = fault.ErrInjected
)

// Planner routes.
const (
	RouteSafe    = plan.RouteSafe
	RouteIQ      = plan.RouteIQ
	RouteLineage = plan.RouteLineage
)

// Error kinds (Definition 5.7).
const (
	Absolute = core.Absolute
	Relative = core.Relative
)

// Re-exported entry points.
var (
	// NewSpace returns an empty probability space.
	NewSpace = formula.NewSpace
	// NewClause builds a normalized clause from atoms.
	NewClause = formula.NewClause
	// NewDNF builds a normalized DNF.
	NewDNF = formula.NewDNF
	// Bounds computes leaf bounds on P(d): Figure 3's bucket bounds,
	// with a star-cover dissociation upper bound (never above Harris')
	// where every variable occurs with one value.
	Bounds = core.LeafBounds
	// NewFragCache returns an empty fragment cache.
	NewFragCache = formula.NewFragCache
	// NewProbCache is NewFragCache under its former name.
	//
	// Deprecated: named only by bench/; use NewFragCache.
	NewProbCache = formula.NewFragCache
)
