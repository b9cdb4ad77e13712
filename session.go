package repro

import (
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/formula"
	"repro/internal/obs"
	"repro/internal/plan"
)

// Session scopes the per-client state of the façade: a fragment cache
// shared by every query the session runs, a default evaluation budget,
// and a default evaluator derived from them. A Session is cheap (create
// one per request, or keep one per client for cache warmth across
// queries) and safe for concurrent use — N goroutines may run queries
// on one Session, and N Sessions may share one DB; the cache is
// concurrent and everything else is read-only after creation.
type Session struct {
	db           *DB
	frags        *formula.FragCache
	budget       engine.Budget
	eps          float64
	eval         engine.Evaluator
	forceLineage bool
	trace        func(*obs.QueryTrace)
	inject       *fault.Injector
}

// SessionOption configures a Session at creation.
type SessionOption func(*Session)

// WithBudget sets the session's evaluation budget. Timeout is the
// query's deadline: one from the start of Run, All or Analyze to its
// last answer. MaxNodes and MaxWork bound each answer's evaluation,
// ranked or not, through the session's default evaluator; no default
// evaluator reads MaxSamples. An evaluator installed with WithEvaluator
// carries its own limits and is used verbatim, under the session's
// query deadline.
func WithBudget(b Budget) SessionOption {
	return func(s *Session) { s.budget = b }
}

// WithEps sets the session's refinement floor: queries evaluate lineage
// with the ε-approximation (absolute error, Definition 5.7) instead of
// exact d-tree compilation, and ranked queries stop refining each
// answer at the same floor. eps must be a finite value in [0, 1);
// anything else is a BuildError at Build. Use WithEvaluator for relative
// error or a different algorithm.
func WithEps(eps float64) SessionOption {
	return func(s *Session) { s.eps = eps }
}

// WithEvaluator installs the evaluator queries hand lineage to,
// overriding the Eps/Budget-derived default. The evaluator is used
// verbatim — wire the session's cache in yourself if it should share
// (see Session.FragCache). Ranked queries derive their scheduler
// configuration from it, exactly like Plan.Answers.
func WithEvaluator(ev Evaluator) SessionOption {
	return func(s *Session) { s.eval = ev }
}

// WithSharedFragCache makes the session memoize lineage fragments in
// the given cache instead of a fresh private one — the cross-session
// sharing knob: sessions over one DB handed the same cache compute each
// recurring fragment once, whoever sees it first. Approximate and
// ranked evaluation store prepared fragments there (normalized form,
// heuristic bounds, decomposition step), short-circuiting leaf
// preparation, their dominant cost; exact evaluation stores exact
// subformula probabilities. Share one across sessions over the same DB
// only.
func WithSharedFragCache(c *FragCache) SessionOption {
	return func(s *Session) { s.frags = c }
}

// WithSharedCache is WithSharedFragCache under its former name.
//
// Deprecated: named only by bench/; use WithSharedFragCache.
func WithSharedCache(c *FragCache) SessionOption { return WithSharedFragCache(c) }

// WithForceLineage disables the planner's structural routes (safe
// plans, IQ sorted scans) for the session's queries, forcing lineage
// materialization plus d-tree evaluation — the ablation/debugging knob,
// and the way to get anytime streaming on a query the planner would
// otherwise answer exactly.
func WithForceLineage() SessionOption {
	return func(s *Session) { s.forceLineage = true }
}

// WithTrace installs a per-query trace sink: after each of the
// session's queries finishes (Run fully iterated, All or Analyze
// returned), fn receives that execution's populated EXPLAIN ANALYZE
// trace. Tracing changes no results — answers, their order and
// refinement steps are bitwise identical with and without it. fn is
// called synchronously from the goroutine that ran the query, once per
// execution; with N goroutines querying one session it must be safe
// for concurrent calls.
func WithTrace(fn func(*QueryTrace)) SessionOption {
	return func(s *Session) { s.trace = fn }
}

// WithInjector arms deterministic fault injection for the session's
// queries: inj fires at the named chaos sites (fault.SiteEvalStep and
// friends) throughout evaluation. A nil or unconfigured injector is
// free — the probes are nil-safe single atomic loads — so production
// sessions simply omit the option. Injected failures surface through
// the ordinary error plumbing: a per-answer error on batch paths, a
// terminating error on streams, never a crash.
func WithInjector(inj *fault.Injector) SessionOption {
	return func(s *Session) { s.inject = inj }
}

// Session opens a session on the DB. With no options: a fresh private
// fragment cache, no budget, exact evaluation.
func (db *DB) Session(opts ...SessionOption) *Session {
	s := &Session{db: db}
	for _, o := range opts {
		o(s)
	}
	if s.frags == nil {
		s.frags = formula.NewFragCache(0)
	}
	return s
}

// FragCache returns the session's fragment cache (the private one, or
// the cache installed by WithSharedFragCache).
func (s *Session) FragCache() *FragCache { return s.frags }

// Evaluator returns the evaluator the session's queries hand lineage
// to: the one installed by WithEvaluator, else the ε-approximation at
// the WithEps floor (exact d-tree compilation at the default 0): one
// engine.Approx carrying the session's cache, the DB's metrics
// registry, the session's fault injector and the session budget's
// per-answer MaxNodes and MaxWork, which ranked queries read as they
// stand. The budget's Timeout is each query's one deadline, which Run,
// All and Analyze put on the context they hand the evaluator; a caller
// evaluating through it outside a query bounds time on its own context.
func (s *Session) Evaluator() Evaluator {
	if s.eval != nil {
		return s.eval
	}
	return engine.Approx{
		Eps: s.eps, MaxNodes: s.budget.MaxNodes, MaxWork: s.budget.MaxWork,
		Frags: s.frags, Metrics: s.db.metrics, Inject: s.inject,
	}
}

// planOptions translates the session knobs into planner options; every
// plan runs its parallel work on the DB's private pool.
func (s *Session) planOptions() plan.Options {
	return plan.Options{
		DisableSafe: s.forceLineage,
		DisableIQ:   s.forceLineage,
		Pool:        s.db.pool,
		Metrics:     s.db.metrics,
		Inject:      s.inject,
	}
}
