package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/formula"
	"repro/internal/obs"
	"repro/internal/workpool"
)

// ErrorKind selects between the two approximation guarantees of
// Definition 5.7.
type ErrorKind uint8

// Approximation-error kinds.
const (
	// Absolute requires p − ε ≤ p̂ ≤ p + ε.
	Absolute ErrorKind = iota
	// Relative requires (1−ε)·p ≤ p̂ ≤ (1+ε)·p.
	Relative
)

func (k ErrorKind) String() string {
	if k == Absolute {
		return "absolute"
	}
	return "relative"
}

// Options configures the d-tree algorithm, whose one configuration is
// the paper's Figure 1 subsumption removal, Figure 3 sorted buckets and
// Lemma 6.8 variable order.
// The zero value asks for an exact answer (Eps 0). It is the one d-tree
// options value: engine.Approx is this type as an evaluator, and
// rank.Options is it as the ranking schedulers' per-answer refinement
// floor and limits. Wall time is the caller's context.
type Options struct {
	// Eps is the allowed error (0 ≤ Eps < 1). Eps 0 requests exact
	// computation (ExactCtx, the paper's "d-tree(error 0)"
	// configuration), which prepares fragments without leaf bounds and
	// refines until no leaf is open.
	Eps float64
	// Kind selects absolute or relative error.
	Kind ErrorKind
	// MaxNodes, when positive, bounds the number of d-tree nodes that
	// refinement builds (the prepared root is not counted). When the
	// budget is exhausted the current bounds are returned with
	// Converged false — [0, 1] for an exact run, which has no bounds
	// until it completes.
	MaxNodes int
	// MaxWork, when positive, bounds the cumulative number of clauses
	// processed across all decomposition steps — a machine-independent
	// stand-in for the paper's wall-clock timeout that also limits runs
	// whose individual leaves are huge. A step's children are charged
	// together, so both budgets are tested between steps.
	MaxWork int

	// Cache is not consulted.
	//
	// Deprecated: named only by bench/; exact evaluation memoizes in
	// Frags.
	Cache *formula.FragCache

	// Frags, when non-nil, is evaluation's one memo. At Eps > 0 it holds
	// prepared leaf fragments — the normalized, subsumption-reduced form
	// together with its heuristic bounds and decomposition step — and
	// a hit short-circuits the whole preparation pipeline (normalize,
	// reduce, leaf bounds), which profiling shows dominates ranking
	// workloads. At Eps 0 it holds the exact probabilities of
	// multi-clause subformulas, so a repeated fragment is a leaf of the
	// exact d-tree. Sharing one Frags across evaluations over the same
	// Space (the answers of a query, repeated Shannon branches)
	// computes each repeated fragment once; it must not be reused with a
	// different Space.
	Frags *formula.FragCache

	// Pool is not consulted: one evaluation runs on the calling
	// goroutine at every Eps. Callers that evaluate many formulas fan
	// them out themselves (pdb.ConfWith's one pool task per answer).
	//
	// Deprecated: named only by bench/.
	Pool *workpool.Pool

	// Metrics, when non-nil, receives this evaluation's cache traffic,
	// refinement steps and budget exhaustions. All recording is nil-safe
	// atomic counting; nil (the default) costs a single predictable
	// branch per event.
	Metrics *obs.Metrics

	// Inject, when non-nil, fires deterministic faults at the named
	// chaos sites on this evaluation's paths (evaluator step, leaf
	// prepare, cache lookup). Nil — the production default — costs one
	// pointer test per site, mirroring Metrics.
	Inject *fault.Injector
}

// Result is the outcome of an evaluation, shared by every algorithm of
// the menu (engine.Result is this type).
type Result struct {
	// Lo and Hi bound the probability: Lo ≤ P(Φ) ≤ Hi. For the d-tree
	// the bounds are certain; for Monte Carlo they hold with probability
	// at least 1−δ (and are [0, 1] when the run did not converge).
	Lo, Hi float64
	// Estimate is an ε-approximation of P(Φ) when Converged is true.
	Estimate float64
	// Nodes is the number of d-tree nodes constructed, the root
	// included.
	Nodes int
	// Samples counts estimator invocations (Monte Carlo only).
	Samples int
	// Exact reports a certain, exact Estimate (Lo == Hi).
	Exact bool
	// EarlyStop reports that the Proposition 5.8 condition fired before
	// the compilation was exhaustive.
	EarlyStop bool
	// Converged reports that the requested guarantee was achieved (always
	// true unless a budget was exhausted or the context fired first).
	Converged bool
}

// ApproxCtx computes an ε-approximation of P(d) by incremental d-tree
// compilation (Section V-D): a Refiner run until the bounds of its
// materialized partial d-tree satisfy the sufficient ε-approximation
// condition of Proposition 5.8. At Eps 0 it is ExactCtx. When ctx is
// cancelled or its deadline passes, evaluation stops promptly and the
// context's error is returned together with the bounds reached so far
// (Converged false). An Eps that is NaN or outside [0, 1) is an error
// before any work.
func ApproxCtx(ctx context.Context, s *formula.Space, d formula.DNF, opt Options) (Result, error) {
	if opt.Eps == 0 {
		return ExactCtx(ctx, s, d, opt)
	}
	r := NewRefiner(ctx, s, d, opt)
	r.Step(math.MaxInt)
	return r.Result(), r.Err()
}

// Evaluate is ApproxCtx under o.
func (o Options) Evaluate(ctx context.Context, s *formula.Space, d formula.DNF) (Result, error) {
	return ApproxCtx(ctx, s, d, o)
}

// ErrBudget is returned when compilation exceeds the configured node
// or work budget before reaching the requested approximation.
var ErrBudget = errors.New("core: node budget exhausted before convergence")

// checkEps rejects an Eps that is NaN or outside [0, 1): such an Eps
// either never meets the guarantee (a full compilation, and no error)
// or meets it vacuously. NewRefiner, the ε-engine's one entry, runs it
// before any work.
func checkEps(eps float64) error {
	if !(eps >= 0 && eps < 1) {
		return fmt.Errorf("core: eps %v must lie in [0, 1)", eps)
	}
	return nil
}

// ExactCtx computes P(d) exactly: the "d-tree(error 0)" configuration
// of the experiments, which runs in polynomial time on lineage of
// tractable queries (Section VI). It is the Refiner in its exact mode
// (exactStep), stepped until no leaf is open; Eps is not consulted.
// Cancellation matches ApproxCtx; an exhausted budget or a fired
// context returns [0, 1] with the error.
func ExactCtx(ctx context.Context, s *formula.Space, d formula.DNF, opt Options) (Result, error) {
	res, _, err := ExactShape(ctx, s, d, opt)
	return res, err
}

// Shape is the composition of a d-tree: its node count per Kind,
// indexed by Kind. A leaf is a node that was never refined: a
// fragment settled by leafHead, by inclusion–exclusion or by the exact
// memo, or the {x = a} leaf each ⊕ branch counts. Its entries sum to
// the Result's Nodes.
type Shape [4]int

// ExactShape is ExactCtx that also returns the Shape of the complete
// d-tree it built (the nodes a memo hit saved are not in it).
func ExactShape(ctx context.Context, s *formula.Space, d formula.DNF, opt Options) (Result, Shape, error) {
	opt.Eps = 0
	r := newRefiner(ctx, s, d, opt, true)
	r.Step(math.MaxInt)
	res := r.Result()
	var sh Shape
	for k, n := range r.st.inner {
		sh[k] = int(n)
	}
	sh[LeafKind] = res.Nodes - sh[IndepOr] - sh[IndepAnd] - sh[ExclOr]
	return res, sh, r.Err()
}

// ExactProbability is ExactCtx on a background context, returning just
// the probability.
//
// Deprecated: named only by bench/; call ExactCtx.
func ExactProbability(s *formula.Space, d formula.DNF) float64 {
	r, _ := ExactCtx(context.Background(), s, d, Options{})
	return r.Estimate
}

// state carries one evaluation's configuration and counters. One
// evaluation runs on one goroutine, so the counters are plain fields.
type state struct {
	s   *formula.Space
	opt Options
	ctx context.Context

	nodes int64
	work  int64
	// inner counts the nodes refine has turned into inner nodes, per
	// Kind (the LeafKind entry stays 0).
	inner [4]int32
	// exact selects the Refiner's exact mode (ExactShape): fragments
	// are prepared by leafHead alone, without cache or leaf bounds.
	exact     bool
	budgetHit bool

	cancelErr error
}

func newState(ctx context.Context, s *formula.Space, opt Options) *state {
	st := new(state)
	st.init(ctx, s, opt)
	return st
}

// init sets a zero state up for one evaluation; the Refiner runs it on
// the state it holds by value.
func (st *state) init(ctx context.Context, s *formula.Space, opt Options) {
	if ctx == nil {
		ctx = context.Background()
	}
	st.s, st.opt, st.ctx = s, opt, ctx
}

// prepare prepares the root fragment: prepareAs, or in exact mode
// leafHead alone — a fragment that is not a leaf yet is open at [0, 1].
func (st *state) prepare(d formula.DNF) *formula.PreparedFrag {
	if !st.exact {
		return st.prepareAs(d, false, false, nil)
	}
	st.work += int64(len(d))
	d, p, leaf := st.leafHead(d, false, false)
	if leaf {
		return &formula.PreparedFrag{D: d, Lo: p, Hi: p, Exact: true}
	}
	return &formula.PreparedFrag{D: d, Hi: 1}
}

// prepareAs prepares fragment d: leafHead under the construction flags
// documented there, then — for a fragment that is not a leaf yet —
// inclusion–exclusion when it is small and LeafBounds otherwise.
//
// The result is written to slot, a zero PreparedFrag the caller hands
// over for good, or to a fresh one when slot is nil, and returned. With
// Options.Frags configured, the fragment is looked up before any of
// that and the filled slot stored after, and the result is the cache's
// canonical entry; a hit replays the work charge of an uncached rerun
// (PreparedFrag.Work) so MaxWork budget traces stay identical with and
// without the cache.
func (st *state) prepareAs(d formula.DNF, normalized, reduced bool, slot *formula.PreparedFrag) *formula.PreparedFrag {
	// Chaos site: prepareAs has no error return, so every injected
	// fault surfaces as a panic and unwinds to the nearest containment
	// point (NewRefiner, rank's grant, or pdb's per-answer recover).
	st.opt.Inject.FirePanic(fault.SiteLeafPrepare)
	c := st.opt.Frags
	if c != nil {
		if e, ok := c.Lookup(d, variantPrepared); ok {
			st.opt.Metrics.RecordFragCache(true)
			st.work += e.Work
			return e
		}
		st.opt.Metrics.RecordFragCache(false)
	}
	key := d
	w := int64(len(key))
	st.work += w
	if slot == nil {
		slot = new(formula.PreparedFrag)
	}
	d, p, leaf := st.leafHead(d, normalized, reduced)
	if !leaf {
		var ops int64
		if p, ops, leaf = st.smallExact(d); leaf {
			w += ops
		}
	}
	if leaf {
		*slot = formula.PreparedFrag{D: d, Lo: p, Hi: p, Exact: true, Work: w}
	} else {
		lo, hi, ops := leafBounds(st.s, d)
		st.work += int64(ops)
		*slot = formula.PreparedFrag{D: d, Lo: lo, Hi: hi, Exact: lo == hi, Work: w + int64(ops)}
	}
	if c == nil {
		return slot
	}
	return c.Store(key, variantPrepared, slot)
}

// lookupExact is the exact mode's memo lookup: d's probability when
// Options.Frags holds it under variantExact. d is a multi-clause
// fragment leafHead has passed; a hit charges nothing more.
func (st *state) lookupExact(d formula.DNF) (float64, bool) {
	c := st.opt.Frags
	if c == nil {
		return 0, false
	}
	// Chaos site: like leaf.prepare, every fault kind surfaces as a
	// contained panic (see Injector.FirePanic).
	st.opt.Inject.FirePanic(fault.SiteCacheLookup)
	e, ok := c.Lookup(d, variantExact)
	st.opt.Metrics.RecordFragCache(ok)
	if !ok {
		return 0, false
	}
	return e.Lo, true
}

// storeExact memoizes d's exact probability p under variantExact.
func (st *state) storeExact(d formula.DNF, p float64) {
	if c := st.opt.Frags; c != nil {
		c.Store(d, variantExact, &formula.PreparedFrag{D: d, Lo: p, Hi: p, Exact: true})
	}
}

// interruptedOrInjected is the per-step poll: the caller's context
// first (its own error, so a deadline reads DeadlineExceeded), then the
// eval.step chaos site (injected errors stop evaluation exactly like
// organic ones; injected panics unwind to the nearest containment
// point).
func (st *state) interruptedOrInjected() error {
	if err := st.ctx.Err(); err != nil {
		return err
	}
	return st.opt.Inject.Fire(fault.SiteEvalStep)
}

func (st *state) cond(lo, hi float64) bool {
	return ApproxCond(st.opt.Kind, st.opt.Eps, lo, hi)
}

func (st *state) overBudget() bool {
	return (st.opt.MaxNodes > 0 && st.nodes >= int64(st.opt.MaxNodes)) ||
		(st.opt.MaxWork > 0 && st.work >= int64(st.opt.MaxWork))
}

// hitBudget marks the evaluation budget-exhausted, counting its
// exhaustion once in the metrics registry.
func (st *state) hitBudget() {
	if !st.budgetHit {
		st.budgetHit = true
		st.opt.Metrics.RecordBudgetExhausted()
	}
}

func (st *state) finish(lo, hi float64) Result {
	lo, hi = clamp01(lo), clamp01(hi)
	if hi < lo {
		hi = lo
	}
	converged := st.cond(lo, hi) && !st.budgetHit && st.cancelErr == nil
	var est float64
	if converged {
		est = EstimateFrom(st.opt.Kind, st.opt.Eps, lo, hi)
	} else {
		est = (lo + hi) / 2
	}
	return Result{
		Lo: lo, Hi: hi, Estimate: est,
		Nodes: int(st.nodes), Exact: lo == hi, Converged: converged,
	}
}

// decompose is step for the ε > 0 compiler (Refiner.refine):
// the children come back prepared, under the construction flags the
// step's rule earns them, each the cache's canonical entry or a slot of
// one block the step allocates. The returned list is fresh on every
// call; callers keep it. When a cache is configured the outcome is
// memoized on f's entry, that list becoming the decision's Children,
// and a later decomposition of the entry replays it instead: no step,
// no restriction, no child Lookup.
func (st *state) decompose(f *formula.PreparedFrag) (Kind, []*formula.PreparedFrag, []float64) {
	if dec := f.Decision(); dec != nil {
		return st.replay(dec)
	}
	sc := prepPool.Get().(*prepScratch)
	defer prepPool.Put(sc)
	kind, subs, mult := st.step(f.D, sc)
	slots := make([]formula.PreparedFrag, len(subs))
	children := make([]*formula.PreparedFrag, len(subs))
	for i, sub := range subs {
		children[i] = st.prepareAs(sub, true, kind == IndepOr, &slots[i])
	}
	clear(subs) // the list stays in sc; the blocks it names need not
	if st.opt.Frags != nil {
		f.SetDecision(&formula.Decision{Kind: uint8(kind), Children: children, Weights: mult})
	}
	return kind, children, mult
}

// replay is decompose from a recorded decision: it returns the
// decision's own children and weights, which callers only read, and
// allocates nothing. It repeats every side effect of the calls it
// skips, in their order: the node step counts for each ⊕ branch, then
// per child the leaf.prepare chaos site and prepareAs's cache hit —
// both hit counters and the work charge.
func (st *state) replay(dec *formula.Decision) (Kind, []*formula.PreparedFrag, []float64) {
	kind := Kind(dec.Kind)
	if kind == ExclOr {
		st.nodes += int64(len(dec.Children))
	}
	for _, e := range dec.Children {
		st.opt.Inject.FirePanic(fault.SiteLeafPrepare)
		st.opt.Frags.CountHit()
		st.opt.Metrics.RecordFragCache(true)
		st.work += e.Work
	}
	return kind, dec.Children, dec.Weights
}
