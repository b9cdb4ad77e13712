package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

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
	// computation, which skips per-leaf bound computation entirely (the
	// paper's "d-tree(error 0)" configuration).
	Eps float64
	// Kind selects absolute or relative error.
	Kind ErrorKind
	// MaxNodes, when positive, bounds the number of d-tree nodes
	// constructed. When the budget is exhausted the current bounds are
	// returned with Converged false.
	MaxNodes int
	// MaxWork, when positive, bounds the cumulative number of clauses
	// processed across all decomposition steps — a machine-independent
	// stand-in for the paper's wall-clock timeout that also limits runs
	// whose individual leaves are huge.
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
	// multi-clause subformulas. Sharing one Frags across evaluations over
	// the same Space (the answers of a query, repeated Shannon branches)
	// computes each repeated fragment once; it must not be reused with a
	// different Space.
	Frags *formula.FragCache

	// Pool is the worker pool exact evaluation fans independent branches
	// out on, bitwise identically at every size (1 = the calling
	// goroutine); nil means the shared workpool.Default. Evaluation at
	// Eps > 0 never enters it. Callers that own a pool (the façade DB)
	// thread it here so sizing one pool never affects another's work.
	Pool *workpool.Pool

	// Metrics, when non-nil, receives this evaluation's cache traffic,
	// refinement steps and budget exhaustions. All recording is nil-safe
	// atomic counting; nil (the default, and what the benchmarks run
	// with) costs a single predictable branch per event.
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

// ExactCtx computes P(d) exactly by exhaustive d-tree compilation
// without materializing the tree and without computing per-leaf bounds.
// This is the "d-tree(error 0)" configuration of the experiments; it
// runs in polynomial time on lineage of tractable queries (Section VI).
// Independent branches are explored in parallel on Options.Pool (see
// internal/workpool) when it has more than one worker. Cancellation
// matches ApproxCtx.
func ExactCtx(ctx context.Context, s *formula.Space, d formula.DNF, opt Options) (Result, error) {
	st := newState(ctx, s, opt)
	p, err := st.exactRec(d, false, false)
	if err != nil {
		res := st.finish(0, 1)
		res.Converged = false
		return res, err
	}
	res := st.finish(p, p)
	res.Estimate, res.Exact, res.Converged = p, true, true
	return res, nil
}

// ExactProbability is ExactCtx on a background context, returning just
// the probability.
//
// Deprecated: named only by bench/; call ExactCtx.
func ExactProbability(s *formula.Space, d formula.DNF) float64 {
	r, _ := ExactCtx(context.Background(), s, d, Options{})
	return r.Estimate
}

// state carries one evaluation's configuration and counters. The
// counters are atomics because the exact path fans independent branches
// out across goroutines; refinement (eps > 0) is sequential, so
// cancelErr is only touched single-threaded.
type state struct {
	s   *formula.Space
	opt Options
	ctx context.Context
	// pooled snapshots worker-pool availability once per evaluation, so
	// the per-node parallelizable check stays lock-free.
	pooled bool

	nodes     atomic.Int64
	work      atomic.Int64
	budgetHit atomic.Bool
	// poisoned marks the evaluation as doomed: a sibling pool task
	// panicked and the batch is unwinding, so every context poll reports
	// cancellation and workers drain at the next stride instead of
	// running their full course (see Pool.RunAbort).
	poisoned atomic.Bool

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
	st.pooled = opt.Pool.Parallelism() > 1
}

func (st *state) prepare(d formula.DNF) *formula.PreparedFrag {
	return st.prepareAs(d, false, false, nil)
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
			st.work.Add(e.Work)
			return e
		}
		st.opt.Metrics.RecordFragCache(false)
	}
	key := d
	w := int64(len(key))
	st.work.Add(w)
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
		lo, hi, ops := leafBounds(st.s, d, true)
		st.work.Add(int64(ops))
		*slot = formula.PreparedFrag{D: d, Lo: lo, Hi: hi, Exact: lo == hi, Work: w + int64(ops)}
	}
	if c == nil {
		return slot
	}
	return c.Store(key, variantPrepared, slot)
}

// exactMemo is exactDecompose memoized in Options.Frags under
// variantExact, when a cache is configured. d is the multi-clause
// fragment leafHead passed; a hit charges nothing beyond what exactRec
// already charged for reaching it, and failed computations are not
// stored.
func (st *state) exactMemo(d formula.DNF) (float64, error) {
	c := st.opt.Frags
	if c == nil {
		return st.exactDecompose(d)
	}
	// Chaos site: like leaf.prepare, every fault kind surfaces as a
	// contained panic (see Injector.FirePanic).
	st.opt.Inject.FirePanic(fault.SiteCacheLookup)
	if e, ok := c.Lookup(d, variantExact); ok {
		st.opt.Metrics.RecordFragCache(true)
		return e.Lo, nil
	}
	st.opt.Metrics.RecordFragCache(false)
	p, err := st.exactDecompose(d)
	if err != nil {
		return 0, err
	}
	c.Store(d, variantExact, &formula.PreparedFrag{D: d, Lo: p, Hi: p, Exact: true})
	return p, nil
}

// interrupted reports why evaluation should stop early: the caller's
// context (its own error, so a latched deadline still reads
// DeadlineExceeded) or a sibling pool task's contained panic (poisoned
// with a live context — reported as context.Canceled so the batch
// drains promptly and the panic, rethrown by the pool, is the error
// that surfaces). The first poll to see a dead context sets the same
// latch, which exactRec loads on every node.
func (st *state) interrupted() error {
	if err := st.ctx.Err(); err != nil {
		st.poison()
		return err
	}
	if st.poisoned.Load() {
		return context.Canceled
	}
	return nil
}

// poison is the RunAbort hook: flips every subsequent interrupted()
// poll on this evaluation to cancelled.
func (st *state) poison() { st.poisoned.Store(true) }

// interruptedOrInjected is the per-step poll: interruption first, then
// the eval.step chaos site (injected errors stop evaluation exactly
// like organic ones; injected panics unwind to the nearest containment
// point).
func (st *state) interruptedOrInjected() error {
	if err := st.interrupted(); err != nil {
		return err
	}
	return st.opt.Inject.Fire(fault.SiteEvalStep)
}

func (st *state) cond(lo, hi float64) bool {
	return ApproxCond(st.opt.Kind, st.opt.Eps, lo, hi)
}

func (st *state) overBudget() bool {
	return (st.opt.MaxNodes > 0 && st.nodes.Load() >= int64(st.opt.MaxNodes)) ||
		(st.opt.MaxWork > 0 && st.work.Load() >= int64(st.opt.MaxWork))
}

// hitBudget marks the evaluation budget-exhausted; the CAS counts each
// evaluation's exhaustion once in the metrics registry no matter how
// many branches observe it.
func (st *state) hitBudget() {
	if st.budgetHit.CompareAndSwap(false, true) {
		st.opt.Metrics.RecordBudgetExhausted()
	}
}

func (st *state) finish(lo, hi float64) Result {
	lo, hi = clamp01(lo), clamp01(hi)
	if hi < lo {
		hi = lo
	}
	converged := st.cond(lo, hi) && !st.budgetHit.Load() && st.cancelErr == nil
	var est float64
	if converged {
		est = EstimateFrom(st.opt.Kind, st.opt.Eps, lo, hi)
	} else {
		est = (lo + hi) / 2
	}
	return Result{
		Lo: lo, Hi: hi, Estimate: est,
		Nodes: int(st.nodes.Load()), Exact: lo == hi, Converged: converged,
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
	kind, subs, mult := st.step(f.D, sc, nil)
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
		st.nodes.Add(int64(len(dec.Children)))
	}
	for _, e := range dec.Children {
		st.opt.Inject.FirePanic(fault.SiteLeafPrepare)
		st.opt.Frags.CountHit()
		st.opt.Metrics.RecordFragCache(true)
		st.work.Add(e.Work)
	}
	return kind, dec.Children, dec.Weights
}

// combine folds the children's (weighted) bounds into the node's by the
// rule of its kind: Σ under ⊕, 1 − Π(1 − ·) under ⊗, Π under ⊙. It is
// the package's one statement of that algebra — exact evaluation and
// Node.Probability / Node.Bounds fold through it;
// gNode.recompute repeats its operations over cached values in place.
func combine(kind Kind, loArr, hiArr []float64) (lo, hi float64) {
	switch kind {
	case ExclOr:
		for i := range loArr {
			lo += loArr[i]
			hi += hiArr[i]
		}
	case IndepOr:
		ql, qh := 1.0, 1.0
		for i := range loArr {
			ql *= 1 - loArr[i]
			qh *= 1 - hiArr[i]
		}
		lo, hi = 1-ql, 1-qh
	case IndepAnd:
		lo, hi = 1, 1
		for i := range loArr {
			lo *= loArr[i]
			hi *= hiArr[i]
		}
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// exactRec is the exhaustive, bounds-free compilation used for Eps 0.
// Independent children recurse through exactChildren, which fans large
// fragments out on the worker pool; results are combined in child-index
// order, so parallel and sequential runs produce bitwise-identical
// probabilities. normalized and reduced are leafHead's construction
// flags.
func (st *state) exactRec(d formula.DNF, normalized, reduced bool) (float64, error) {
	// Poll the context on a stride of the shared node counter: checking
	// every node would have all pool workers contending on the timer
	// context's mutex. The first node still polls, so a dead context
	// fails fast. Once a poll has latched an interruption every node
	// polls, or each RunAbort sibling of the unwinding batch would run on
	// to a stride poll of its own.
	if n := st.nodes.Add(1); n%exactCtxStride == 1 || st.poisoned.Load() {
		if err := st.interruptedOrInjected(); err != nil {
			return 0, err
		}
	}
	st.work.Add(int64(len(d)))
	if st.overBudget() {
		st.hitBudget()
		return 0, ErrBudget
	}
	d, p, leaf := st.leafHead(d, normalized, reduced)
	if leaf {
		return p, nil
	}
	return st.exactMemo(d)
}

// exactDecompose computes P(d) for a multi-clause DNF leafHead has
// passed: inclusion–exclusion when small, else one step of Figure 1,
// the children's probabilities folded by the node's rule.
func (st *state) exactDecompose(d formula.DNF) (float64, error) {
	if p, _, ok := st.smallExact(d); ok {
		return p, nil
	}
	kind, subs, mult := st.stepAlone(d, nil)
	ps, err := st.exactChildren(subs, true, kind == IndepOr)
	if err != nil {
		return 0, err
	}
	for i := range ps {
		ps[i] *= mult[i]
	}
	p, _ := combine(kind, ps, ps)
	return p, nil
}
