package core

import (
	"context"
	"fmt"
	"sort"
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
// the paper's: Figure 1's subsumption removal, Figure 3's sorted
// buckets, Theorem 5.12's leaf closing and Lemma 6.8's variable order.
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
	// Nodes is the number of d-tree nodes constructed.
	Nodes int
	// LeavesClosed counts leaves discarded by the Theorem 5.12 check.
	LeavesClosed int
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
// compilation (Section V-D). It decomposes d depth-first following
// Figure 1, checking before each node construction whether (1) the current
// global bounds already satisfy the sufficient ε-approximation condition
// of Proposition 5.8 (then it stops), or (2) the current leaf can be
// closed per Theorem 5.12 while still guaranteeing the error bound. When
// ctx is cancelled or its deadline passes, evaluation stops promptly and
// the context's error is returned together with the bounds reached so
// far (Converged false). An Eps that is NaN or outside [0, 1) is an
// error before any work.
func ApproxCtx(ctx context.Context, s *formula.Space, d formula.DNF, opt Options) (Result, error) {
	if err := checkEps(opt.Eps); err != nil {
		return Result{Hi: 1}, err
	}
	if opt.Eps == 0 {
		return ExactCtx(ctx, s, d, opt)
	}
	st := newState(ctx, s, opt)
	if err := st.ctx.Err(); err != nil {
		st.cancelErr = err
		return st.finish(0, 1), err
	}
	f := st.prepare(d)
	if f.Exact {
		return st.finish(f.Lo, f.Hi), nil
	}
	id := affine{1, 0}
	lo, hi := st.explore(f, bctx{id, id, id, id})
	if st.done {
		lo, hi = st.doneLo, st.doneHi
	}
	res := st.finish(lo, hi)
	if st.cancelErr != nil {
		return res, st.cancelErr
	}
	if st.budgetHit.Load() {
		return res, ErrBudget
	}
	return res, nil
}

// Evaluate is ApproxCtx under o.
func (o Options) Evaluate(ctx context.Context, s *formula.Space, d formula.DNF) (Result, error) {
	return ApproxCtx(ctx, s, d, o)
}

// checkEps rejects an Eps that is NaN or outside [0, 1): such an Eps
// either never meets the guarantee (a full compilation, and no error)
// or meets it vacuously. ApproxCtx and NewRefiner, the two ε-engines'
// entries, run it before any work.
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

// affine is the map x ↦ a·x + b. Bound propagation through every d-tree
// node kind is affine (with non-negative slope) in any single descendant
// leaf's bound once all other leaves are fixed — the observation behind
// Lemma 5.11 — so the global stop and close checks reduce to evaluating
// four precomposed affine maps, O(1) per check.
type affine struct{ a, b float64 }

func (f affine) ap(x float64) float64    { return f.a*x + f.b }
func (f affine) compose(g affine) affine { return affine{f.a * g.a, f.a*g.b + f.b} }

// bctx carries, for the subtree being explored, the affine maps from its
// (lower, upper) bounds to the d-tree root's (lower, upper) bounds under
// two policies for leaves not yet explored:
//
//	stop policy  — open leaves contribute their heuristic [lo, hi]
//	               (Proposition 5.8 check on the current partial d-tree);
//	close policy — open leaves are pinned to their lower bound [lo, lo],
//	               the bound-space point maximizing the error interval
//	               (Lemma 5.11), so satisfying the condition here makes
//	               closing the current leaf safe (Theorem 5.12).
type bctx struct {
	sLo, sHi affine // stop policy: root lower / upper
	cLo, cHi affine // close policy: root lower / upper
}

// state carries one evaluation's configuration and counters. The
// counters are atomics because the exact path fans independent branches
// out across goroutines; the incremental (eps > 0) refinement itself is
// sequential — its stop/close decisions depend on refinement order — so
// the fields below the counters are only touched single-threaded.
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

	closed         int
	done           bool
	doneLo, doneHi float64
	cancelErr      error
}

func newState(ctx context.Context, s *formula.Space, opt Options) *state {
	if ctx == nil {
		ctx = context.Background()
	}
	return &state{
		s: s, opt: opt, ctx: ctx,
		pooled: opt.Pool.Parallelism() > 1,
	}
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
		Nodes: int(st.nodes.Load()), LeavesClosed: st.closed,
		Exact: lo == hi, EarlyStop: st.done && !st.budgetHit.Load() && st.cancelErr == nil,
		Converged: converged,
	}
}

// explore refines the fragment f, returning its (possibly still partial)
// probability bounds. It is the incremental compilation scheme of
// Section V-D: before constructing the node for f it performs the global
// stop check and the leaf close check, then decomposes per Figure 1 and
// recurses on the children depth-first left-to-right, updating the bound
// contexts with each refined sibling.
func (st *state) explore(f *formula.PreparedFrag, cx bctx) (lo, hi float64) {
	st.nodes.Add(1)

	// (1) Stop check: are the global bounds, with this and all remaining
	// open leaves at their heuristic bounds, already an ε-approximation?
	gLo, gHi := cx.sLo.ap(f.Lo), cx.sHi.ap(f.Hi)
	if st.cond(gLo, gHi) {
		st.done = true
		st.doneLo, st.doneHi = gLo, gHi
		return f.Lo, f.Hi
	}
	if err := st.interruptedOrInjected(); err != nil {
		st.done = true
		st.cancelErr = err
		st.doneLo, st.doneHi = gLo, gHi
		return f.Lo, f.Hi
	}
	if st.overBudget() {
		st.done = true
		st.hitBudget()
		st.doneLo, st.doneHi = gLo, gHi
		return f.Lo, f.Hi
	}

	// (2) Close check (Theorem 5.12): with every open leaf pinned at its
	// lower bound, would freezing this leaf at [lo, hi] still allow an
	// ε-approximation after refining the rest? If so, discard the leaf.
	if st.cond(cx.cLo.ap(f.Lo), cx.cHi.ap(f.Hi)) {
		st.closed++
		return f.Lo, f.Hi
	}

	// (3) Decompose per Figure 1.
	kind, children, mult := st.decompose(f)

	// Effective child bounds (scaled by the ⊕ branch weight where
	// applicable), the two halves of one block; refined in place as
	// children complete.
	n := len(children)
	bounds := make([]float64, 2*n)
	loArr, hiArr := bounds[:n:n], bounds[n:]
	processed := make([]bool, n)
	for i, c := range children {
		loArr[i], hiArr[i] = mult[i]*c.Lo, mult[i]*c.Hi
		processed[i] = c.Exact
	}

	// Refine children in order of decreasing bound-interval width (the
	// paper refines the leaf with the largest bounds interval first):
	// wide intervals are where refinement buys the most convergence.
	order := make([]int, 0, n)
	for i, c := range children {
		if !c.Exact {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		wa := hiArr[order[a]] - loArr[order[a]]
		wb := hiArr[order[b]] - loArr[order[b]]
		return wa > wb
	})
	for _, i := range order {
		if st.done {
			break
		}
		childCx := st.childCtx(cx, kind, mult[i], loArr, hiArr, processed, i)
		clo, chi := st.explore(children[i], childCx)
		loArr[i], hiArr[i] = mult[i]*clo, mult[i]*chi
		processed[i] = true
	}

	return combine(kind, loArr, hiArr)
}

// decompose is step for the ε > 0 compilers (explore, Refiner.refine):
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

// childCtx builds the bound context for child i of a node of the given
// kind, composing the parent context with the node-local affine maps. For
// the stop policy, siblings contribute their current [lo, hi]; for the
// close policy, already-processed siblings contribute their refined
// (frozen) [lo, hi] while still-open siblings are pinned to [lo, lo].
func (st *state) childCtx(cx bctx, kind Kind, q float64, loArr, hiArr []float64, processed []bool, i int) bctx {
	var sL, sU, cL, cU affine
	switch kind {
	case ExclOr:
		var sumLoS, sumHiS, sumLoC, sumHiC float64
		for j := range loArr {
			if j == i {
				continue
			}
			sumLoS += loArr[j]
			sumHiS += hiArr[j]
			sumLoC += loArr[j]
			if processed[j] {
				sumHiC += hiArr[j]
			} else {
				sumHiC += loArr[j]
			}
		}
		sL = affine{q, sumLoS}
		sU = affine{q, sumHiS}
		cL = affine{q, sumLoC}
		cU = affine{q, sumHiC}
	case IndepOr:
		var pLoS, pHiS, pLoC, pHiC float64 = 1, 1, 1, 1
		for j := range loArr {
			if j == i {
				continue
			}
			pLoS *= 1 - loArr[j]
			pHiS *= 1 - hiArr[j]
			pLoC *= 1 - loArr[j]
			if processed[j] {
				pHiC *= 1 - hiArr[j]
			} else {
				pHiC *= 1 - loArr[j]
			}
		}
		// 1 − (1 − q·x)·R  =  q·R·x + (1 − R)
		sL = affine{q * pLoS, 1 - pLoS}
		sU = affine{q * pHiS, 1 - pHiS}
		cL = affine{q * pLoC, 1 - pLoC}
		cU = affine{q * pHiC, 1 - pHiC}
	case IndepAnd:
		var pLoS, pHiS, pLoC, pHiC float64 = 1, 1, 1, 1
		for j := range loArr {
			if j == i {
				continue
			}
			pLoS *= loArr[j]
			pHiS *= hiArr[j]
			pLoC *= loArr[j]
			if processed[j] {
				pHiC *= hiArr[j]
			} else {
				pHiC *= loArr[j]
			}
		}
		sL = affine{q * pLoS, 0}
		sU = affine{q * pHiS, 0}
		cL = affine{q * pLoC, 0}
		cU = affine{q * pHiC, 0}
	default:
		panic("core: childCtx on leaf")
	}
	return bctx{
		sLo: cx.sLo.compose(sL),
		sHi: cx.sHi.compose(sU),
		cLo: cx.cLo.compose(cL),
		cHi: cx.cHi.compose(cU),
	}
}

// combine folds the children's (weighted) bounds into the node's by the
// rule of its kind: Σ under ⊕, 1 − Π(1 − ·) under ⊗, Π under ⊙. It is
// the package's one statement of that algebra — explore, exact
// evaluation and Node.Probability / Node.Bounds all fold through it;
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
