package core

import (
	"context"

	"repro/internal/fault"
	"repro/internal/formula"
)

// Refiner is the incremental ε-approximation of Section V-D: it
// materializes the partial d-tree, and each Step refines, for up to
// budget leaf expansions, the open leaf whose interval can move the
// root's the most, and returns the tightened global bounds. That leaf
// is the one with the largest width × root sensitivity (see
// leafEntry); the paper's order, the leaf with the largest own
// interval, ignores how ⊗, ⊙ and ⊕ scale a leaf's width on its way to
// the root. ApproxCtx is a Refiner stepped until Done. The API is
// step-wise so that callers can interleave refinement across many
// formulas, which is what the multi-answer ranking schedulers in
// internal/rank do: answers are refined only as far as their bounds
// must separate, not to a fixed ε.
//
// The reported interval is the intersection of every interval observed
// so far. Each recomputed root interval contains P(Φ), so the
// intersection does too, and the bounds are monotone: Lo never
// decreases and Hi never increases across Steps.
//
// Options are interpreted as on ApproxCtx at Eps > 0: Eps is the target
// guarantee, tested by ApproxCond. At Eps 0 that test keeps its
// absolute 1e-12 slack, so refinement stops at an interval at most
// 1e-12 wide, not always at a point: a formula whose P is below 1e-12
// can be Done at its first bounds. Frags memoizes prepared leaf
// fragments and may be shared across Refiners over the same Space, and
// all work happens on the calling goroutine (Cache and Pool are not
// consulted). MaxNodes/MaxWork bound this Refiner's cumulative work
// across all Steps; exhausting them surfaces ErrBudget through Err.
//
// ExactCtx runs the same Refiner in an exact mode that only it
// selects: no leaf bounds, no ApproxCond, depth-first order (exactStep).
//
// Each Step costs O(depth + log leaves) plus the fanout of the nodes
// on the refined leaf's root path: the open leaf comes from a heap,
// and the root interval is recomputed by propagating the leaf's new
// bounds up the dirty path only — never a whole-tree pass (the
// original O(tree)-per-Step bookkeeping is refRefiner, the oracle of
// the differential tests in oracle_test.go).
//
// A Refiner is not safe for concurrent use; distinct Refiners are
// independent and may run concurrently (sharing a cache is safe). The
// tree's root lives in the Refiner, so a Refiner must not be copied.
type Refiner struct {
	st    state // by value: one allocation holds both
	root  gNode
	open  leafHeap     // open leaves, largest key first
	open0 [1]leafEntry // open's first array: the root alone
	lo    float64
	hi    float64
	steps int
	done  bool
	err   error
}

// NewRefiner prepares d (normalization, subsumption removal, initial
// heuristic bounds — the same leaf preparation every d-tree evaluation
// starts with) and returns a Refiner positioned before the first
// refinement step. A formula whose prepared bounds already meet the
// Options guarantee is Done immediately with zero steps taken. The
// prepared root is the tree's first node, as in exact evaluation: a
// Refiner that converges at its root reports 1 node in Result (the
// MaxNodes budget counts the nodes refinement builds). An Eps that is
// NaN or outside [0, 1), or a context already done, fails the Refiner
// (Err) before preparation, with 0 nodes.
func NewRefiner(ctx context.Context, s *formula.Space, d formula.DNF, opt Options) *Refiner {
	return newRefiner(ctx, s, d, opt, false)
}

// newRefiner is NewRefiner, in exact mode when exact is set (ExactShape
// is that mode's one entry).
func newRefiner(ctx context.Context, s *formula.Space, d formula.DNF, opt Options, exact bool) (r *Refiner) {
	r = &Refiner{lo: 0, hi: 1}
	st := &r.st
	st.init(ctx, s, opt)
	st.exact = exact
	err := checkEps(opt.Eps)
	if err == nil {
		err = st.ctx.Err()
	}
	if err != nil {
		r.fail(err)
		return r
	}
	// Preparation runs arbitrary normalization/bounds code (and the
	// leaf.prepare chaos site); a panic here must fail this refiner —
	// one answer — not the whole ranked batch, so it is contained into
	// the refiner's error exactly like a cancellation.
	defer func() {
		if v := recover(); v != nil {
			pe, first := fault.Promote(v, "core.prepare")
			if first {
				opt.Metrics.RecordPanicRecovered()
			}
			r.fail(pe)
		}
	}()
	f := st.prepare(d)
	r.root = gNode{frag: f, lo: f.Lo, hi: f.Hi}
	if !f.Exact {
		r.open0[0] = leafEntry{n: &r.root, sens: 1}
		r.open = r.open0[:]
	}
	r.absorb(f.Lo, f.Hi)
	return r
}

// Step refines the open leaf with the largest key, repeating up to
// budget times (a budget below 1 is treated as 1), and returns the
// current global bounds together with whether refinement is finished.
// Done becomes true when the Options guarantee is met, the d-tree is
// complete (the bounds are then a point), the node/work budget is
// exhausted, or the context is cancelled; the latter two record an
// error retrievable via Err. Step on a Done refiner returns the final
// bounds unchanged.
func (r *Refiner) Step(budget int) (lo, hi float64, done bool) {
	if budget < 1 {
		budget = 1
	}
	for i := 0; i < budget && !r.done; i++ {
		if err := r.st.interruptedOrInjected(); err != nil {
			r.fail(err)
			break
		}
		if r.st.overBudget() {
			r.fail(ErrBudget)
			break
		}
		e := r.pop()
		if e.n == nil {
			// Tree complete: the bounds are exact. Reachable only when
			// float rounding keeps an exact interval from satisfying a
			// very tight Eps condition.
			r.done = true
			break
		}
		if r.st.exact {
			r.exactStep(e.n)
			continue
		}
		r.st.refine(e.n)
		r.steps++
		pathLen := r.attach(e)
		r.absorb(r.root.lo, r.root.hi)
		r.st.opt.Metrics.RecordRefineStep(pathLen)
	}
	return r.lo, r.hi, r.done
}

// Bounds returns the current interval: Lo ≤ P(Φ) ≤ Hi.
func (r *Refiner) Bounds() (lo, hi float64) { return r.lo, r.hi }

// Done reports that refinement is finished (guarantee met, tree
// complete, budget exhausted, or context cancelled).
func (r *Refiner) Done() bool { return r.done }

// Err returns the error that stopped refinement, if any: ErrBudget on
// node/work exhaustion, the context's error on cancellation, nil
// otherwise (including after normal convergence).
func (r *Refiner) Err() error { return r.err }

// Steps returns the number of leaf refinements performed so far.
func (r *Refiner) Steps() int { return r.steps }

// Result summarizes the refinement so far in the same form as
// ApproxCtx/ExactCtx: current bounds, an estimate (guarantee-respecting when
// Converged, the interval midpoint otherwise), and the node and cache
// counters.
func (r *Refiner) Result() Result {
	res := r.st.finish(r.lo, r.hi)
	if r.root.frag != nil {
		res.Nodes++ // the prepared root
	}
	// An empty open-leaf heap is a complete tree: every leaf exact.
	res.EarlyStop = res.Converged && len(r.open) > 0
	return res
}

// exactStep is one Step in exact mode, where an open leaf is [0, 1]
// and the run ends only when nothing is open. The popped leaf n is
// settled from the memo when it holds n's fragment, by
// inclusion–exclusion when the fragment is small (memoized then), and
// otherwise refined; its open children are pushed in reverse, so they
// pop in DFS preorder — a recursive evaluation's order, in which memo
// entries are stored and found. The live tree is the path being
// expanded and its pending siblings (see complete).
func (r *Refiner) exactStep(n *gNode) {
	st := &r.st
	d := n.frag.D
	if p, ok := st.lookupExact(d); ok {
		r.complete(n, p)
		return
	}
	if p, _, ok := st.smallExact(d); ok {
		st.storeExact(d, p)
		r.complete(n, p)
		return
	}
	st.refine(n)
	r.steps++
	for i := len(n.children) - 1; i >= 0; i-- {
		if c := &n.children[i]; c.frag != nil {
			r.open = append(r.open, leafEntry{n: c})
			n.open++
		}
	}
	if n.open == 0 {
		r.complete(n, r.combineExact(n))
	}
}

// complete records p as the exact probability of n and walks up: a
// parent whose last open child n was is combined once, here
// (combineExact), and completes in turn. The root's completion ends
// the run.
func (r *Refiner) complete(n *gNode, p float64) {
	for {
		n.lo, n.hi = p, p
		par := n.parent
		if par == nil {
			r.absorb(p, p)
			r.done = true
			return
		}
		if par.open--; par.open > 0 {
			return
		}
		p, n = r.combineExact(par), par
	}
}

// combineExact is n's exact probability from its children's — recompute
// over point intervals, whose lo carries the value uncapped — memoized,
// and then n's child block is released.
func (r *Refiner) combineExact(n *gNode) float64 {
	n.recompute()
	p := n.lo
	r.st.storeExact(n.frag.D, p)
	n.children = nil
	return p
}

// absorb intersects the freshly recomputed root interval with the best
// interval so far and re-checks the stop condition. Both intervals
// contain P(Φ), so the intersection is a valid, never-widening bound.
func (r *Refiner) absorb(lo, hi float64) {
	if lo > r.lo {
		r.lo = lo
	}
	if hi < r.hi {
		r.hi = hi
	}
	if r.hi < r.lo {
		r.hi = r.lo // numeric guard, like finish
	}
	if r.st.cond(r.lo, r.hi) {
		r.done = true
	}
}

// fail records the terminal error and stops refinement. The state
// flags keep Result's Converged reporting consistent with the
// run-to-completion evaluators.
func (r *Refiner) fail(err error) {
	r.done = true
	if r.err != nil {
		return
	}
	r.err = err
	if err == ErrBudget {
		r.st.hitBudget()
	} else {
		r.st.cancelErr = err
	}
}

// Abort stops refinement with err (retrievable via Err), exactly as if
// the context had fired. The rank scheduler uses it to fail a single
// answer whose refinement panicked without unwinding the whole run.
func (r *Refiner) Abort(err error) { r.fail(err) }
