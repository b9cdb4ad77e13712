// Package engine puts the paper's lineage-based confidence computation
// behind one cancellable Evaluator API with two evaluators: Approx, the
// d-tree ε-approximation, whose zero Eps is exact d-tree compilation —
// the paper's "d-tree(error 0)" — and MonteCarlo, the Karp-Luby/DKLR
// baseline. (The SPROUT exact plans read the query's structure, not a
// lineage DNF; internal/plan routes to them.)
//
// Every evaluator is a value implementing
//
//	Evaluate(ctx, space, lineage) (Result, error)
//
// with context-based cancellation and deadlines. Approx is core.Options
// itself: its MaxNodes and MaxWork bound one evaluation, and its wall
// time is the caller's context. Every Eps, exact included, is one
// core.Refiner on the calling goroutine; callers that evaluate many
// answers fan them out themselves (pdb.ConfWith). Both modes memoize in
// one formula.FragCache, Approx's Frags: prepared leaf fragments at
// ε > 0, exact subformula probabilities at ε = 0. The cache counts its
// own traffic (FragCache.CacheStats), and Metrics receives it.
package engine

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/formula"
	"repro/internal/mc"
)

// Re-exported core types, so engine users configure evaluators without
// importing internal/core.
// ErrorKind selects absolute or relative approximation error.
type ErrorKind = core.ErrorKind

// Error kinds (Definition 5.7).
const (
	Absolute = core.Absolute
	Relative = core.Relative
)

// ErrBudget is returned by Approx when an evaluation exhausts its
// MaxNodes or MaxWork budget before reaching the requested guarantee.
// MonteCarlo never returns it: a spent MaxSamples budget is a nil error
// with Result.Converged false. An expired deadline surfaces as the
// context's error on every evaluator.
var ErrBudget = core.ErrBudget

// Budget bounds the resources of a façade session's queries
// (WithBudget) or of a MonteCarlo evaluation. The zero value is
// unlimited. Approx takes MaxNodes and MaxWork as fields of its own and
// its wall time from the caller's context.
type Budget struct {
	// MaxNodes bounds the number of d-tree nodes constructed per answer.
	MaxNodes int
	// MaxWork bounds cumulative clause-processing operations per
	// answer — a machine-independent stand-in for a wall-clock timeout.
	MaxWork int
	// MaxSamples bounds Monte Carlo estimator invocations.
	MaxSamples int
	// Timeout, when positive, is applied to the evaluation's context as
	// a deadline via Context (a façade session applies it once per
	// query, over all its answers). The deadline only ever tightens the
	// parent: a parent cancelled (or expired) before or during the
	// evaluation still stops it with the parent's error — Timeout never
	// grants a dead context another lease on life.
	Timeout time.Duration
}

// Context derives the evaluation context carrying the Timeout. A nil
// parent is treated as context.Background(). When the parent is already
// cancelled the derived context is born cancelled with the parent's
// error, so evaluators fail fast with ctx.Err() instead of running for
// up to Timeout (see TestBudgetTimeoutCancelledParent). The returned
// cancel function must be called to release the timer.
func (b Budget) Context(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if b.Timeout > 0 {
		return context.WithTimeout(ctx, b.Timeout)
	}
	return ctx, func() {}
}

// Result is the outcome of an evaluation, unified across algorithms.
type Result = core.Result

// Evaluator is the single entry point for confidence computation: it
// evaluates the probability of a lineage DNF over a probability space.
// Implementations must be safe for concurrent use — conf() fans batches
// of answers out across goroutines sharing one Evaluator.
type Evaluator interface {
	Evaluate(ctx context.Context, s *formula.Space, d formula.DNF) (Result, error)
}

// Approx evaluates an ε-approximation with certain error guarantees by
// incremental d-tree compilation (Section V-D): core.Refiner refines
// the materialized partial d-tree until its bounds meet Eps. Eps 0,
// the zero value, is exact evaluation (the paper's "d-tree(error 0)"):
// the same Refiner in its exact mode, run until no leaf is open.
// Either runs on the calling goroutine; Pool is not consulted. It is
// core.Options, whose Evaluate rejects an Eps outside [0, 1) before
// any work.
type Approx = core.Options

var _ Evaluator = Approx{}

// Exact is Approx, whose zero Eps is exact evaluation.
//
// Deprecated: named only by bench/; use Approx.
type Exact = Approx

// MonteCarlo evaluates an (ε, δ) relative approximation with the
// Karp-Luby/DKLR baseline (the aconf() operator of MayBMS). Its bounds
// are probabilistic: they hold with probability at least 1−δ.
type MonteCarlo struct {
	// Eps is the relative error (0 < Eps < 1).
	Eps float64
	// Delta is the failure probability (0 < Delta < 1).
	Delta float64
	// Budget bounds the evaluation (MaxSamples and Timeout apply).
	Budget Budget
	// Seed seeds the per-evaluation RNG; 0 means seed 1. Each Evaluate
	// call creates its own generator, so one MonteCarlo value is safe
	// for concurrent batches.
	Seed int64
}

// Evaluate implements Evaluator. Eps or Delta outside (0, 1) is an
// error, returned before any sample is drawn.
func (e MonteCarlo) Evaluate(ctx context.Context, s *formula.Space, d formula.DNF) (Result, error) {
	ctx, cancel := e.Budget.Context(ctx)
	defer cancel()
	return mc.AConfCtx(ctx, s, d, mc.AConfOptions{
		Eps: e.Eps, Delta: e.Delta, MaxSamples: e.Budget.MaxSamples, Seed: e.Seed,
	})
}
