// Package rank is the anytime multi-answer ranking subsystem: top-k
// by confidence and threshold (P ≥ τ) queries answered by interleaved
// bound refinement instead of full per-answer evaluation.
//
// The d-tree ε-approximation produces monotonically tightening
// [lo, hi] probability bounds (core.Refiner). For "which k answers are
// the most probable?" and "which answers have P ≥ τ?" the final
// probabilities are rarely needed — only enough bound separation to
// prove membership. The schedulers here implement the multisimulation
// idea of MystiQ-style top-k processing: every answer gets a resumable
// refiner, and refinement steps are repeatedly granted to the answer
// whose interval currently straddles the k-th / τ cut line (widest
// interval first), until every answer's membership is decided. Answers
// whose bounds separate early are never refined further, which on
// skewed confidence distributions prunes most of the work a full
// evaluation would spend.
//
// All refiners share one formula.FragCache (overlapping lineage across
// answers prepares once) and run on the calling goroutine; scheduling
// is sequential and deterministic — ties everywhere are broken by
// answer index, so a ranking is reproducible.
//
// Scheduling is event-driven: each grant tightens exactly one answer's
// interval, so the decide pass re-examines only the answers that
// tightening can affect (O(affected · log n) per grant against sorted
// bound arrays, instead of an O(n²) rescan of all answer pairs) and
// the next grantee comes from a width-ordered heap (O(log n) instead
// of a linear scan). The full-rescan scheduler it replaced is the
// oracle in oracle_test.go; both make identical decisions in identical
// order.
package rank

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/formula"
)

// grantSteps is the number of leaf refinements per scheduling decision:
// enough to amortize scheduling, few enough to waste little work.
const grantSteps = 4

// Options configures a ranking run: core.Options, read per answer. Eps
// is the refinement floor — an answer still straddling the cut there is
// decided by its estimate (Decided false); Eps 0 refines toward
// exactness, within ApproxCond's absolute 1e-12 slack (a ranking
// refiner is core.NewRefiner's, not ExactCtx's exact mode). MaxNodes
// and MaxWork bound each answer's refiner; the run's wall clock is the
// caller's context. A nil Frags means a run-private cache (the answers'
// shared lineage makes even that pay). Metrics also receives the run's
// grants and decide events. Pool is deprecated and not consulted:
// refiners run on the calling goroutine.
type Options = core.Options

// Item is one answer's ranking outcome.
type Item struct {
	// Index is the answer's position in the input slice.
	Index int
	// Lo and Hi bound the answer's probability at the point refinement
	// stopped for it.
	Lo, Hi float64
	// P is the confidence estimate (guarantee-respecting when the
	// refiner converged, the interval midpoint otherwise).
	P float64
	// Steps counts the leaf refinements spent on this answer.
	Steps int
	// Nodes counts the d-tree nodes of the answer's refiner, the
	// prepared root included (core.Result.Nodes).
	Nodes int
	// Selected reports membership in the result (top-k set / above
	// threshold).
	Selected bool
	// Decided reports that membership was proven by bound separation
	// (or, for unselected answers, refuted). False marks a borderline
	// answer cut by its estimate after refinement bottomed out at the
	// Eps floor or a budget.
	Decided bool
	// Converged reports that P carries the Eps guarantee (the answer's
	// refiner converged). It is independent of Decided: membership is
	// often proven while the bounds are still wide, in which case P is
	// only the interval midpoint.
	Converged bool
	// DecidedAtStep is the scheduler's cumulative step count at the
	// moment this answer's membership was proven (zero for answers never
	// decided by bound separation). For streamed answers it is always at
	// most the run's final Result.Steps; a strict inequality proves the
	// answer was delivered before refinement of the rest finished.
	DecidedAtStep int
}

// Result is a ranking run's outcome.
type Result struct {
	// Items holds every answer's outcome, in input order.
	Items []Item
	// Ranking lists the selected answers' indices, most probable first
	// (estimate descending, input index breaking ties).
	Ranking []int
	// Steps is the total number of leaf refinements granted — the
	// scheduler's work measure, comparable against RefineAll's.
	Steps int
}

// membership status of one answer during scheduling.
type status uint8

const (
	undecided  status = iota
	decidedIn         // proven in the top-k set / above τ
	decidedOut        // proven out
)

// sched carries one ranking run: a refiner per answer plus the
// scheduling state. The decide index and pick heap are built lazily on
// first use, so RefineAll (which neither decides nor picks) never pays
// for them.
type sched struct {
	ctx    context.Context
	opt    Options
	emit   func(Item)
	refs   []*core.Refiner
	items  []Item
	status []status
	steps  int
	ix     *decideIndex
	ph     *widthHeap
}

func newSched(ctx context.Context, s *formula.Space, dnfs []formula.DNF, opt Options, emit func(Item)) *sched {
	if ctx == nil {
		ctx = context.Background()
	}
	if opt.Frags == nil {
		// Run-private fragment cache: the answers of one query share
		// lineage fragments, so even without a caller-provided cache
		// each repeated fragment prepares once per run.
		opt.Frags = formula.NewFragCache(0)
	}
	sc := &sched{
		ctx:    ctx,
		opt:    opt,
		emit:   emit,
		refs:   make([]*core.Refiner, len(dnfs)),
		items:  make([]Item, len(dnfs)),
		status: make([]status, len(dnfs)),
	}
	for i, d := range dnfs {
		sc.refs[i] = core.NewRefiner(ctx, s, d, opt)
		lo, hi := sc.refs[i].Bounds()
		sc.items[i] = Item{Index: i, Lo: lo, Hi: hi}
	}
	return sc
}

// pick returns the undecided answer with the widest interval that can
// still be refined, or -1. Width ties go to the lower index. The heap
// serves this in O(1) (grants re-sift in O(log n)).
func (sc *sched) pick() int {
	if sc.ph == nil {
		sc.ph = newWidthHeap(sc)
	}
	if len(sc.ph.idx) == 0 {
		return -1
	}
	return sc.ph.idx[0]
}

// grant hands the chosen answer grantSteps of refinement and records
// the tightened bounds. Only context errors (and contained panics) are
// returned: a refiner exhausting its per-answer budget simply stops
// refining (the answer is later cut by estimate, like the Eps floor).
func (sc *sched) grant(i int) error {
	sc.opt.Metrics.RecordRankGrant()
	before := sc.refs[i].Steps()
	oldLo, oldHi := sc.items[i].Lo, sc.items[i].Hi
	lo, hi := sc.step(i)
	sc.steps += sc.refs[i].Steps() - before
	sc.items[i].Lo, sc.items[i].Hi = lo, hi
	if sc.ix != nil {
		sc.ix.update(i, oldLo, oldHi, lo, hi)
	}
	sc.ph.refile(i, sc.refs[i].Done() || sc.status[i] != undecided)
	if err := sc.refs[i].Err(); err != nil && !errors.Is(err, core.ErrBudget) {
		return err
	}
	return nil
}

// step runs one refinement grant under a recover: a panic inside
// Step — an engine bug or an injected fault below a containment-free
// path — fails this answer's refiner and surfaces through its Err like
// a cancellation, never unwinding the scheduler (whose emit hook
// yields into a consumer iterator that must not be re-entered after a
// panic).
func (sc *sched) step(i int) (lo, hi float64) {
	defer func() {
		if v := recover(); v != nil {
			pe, first := fault.Promote(v, "rank.grant")
			if first {
				sc.opt.Metrics.RecordPanicRecovered()
			}
			sc.refs[i].Abort(pe)
			lo, hi = sc.items[i].Lo, sc.items[i].Hi
		}
	}()
	lo, hi, _ = sc.refs[i].Step(grantSteps)
	return lo, hi
}

// initErr surfaces a refiner that failed before or during preparation
// (an Eps outside [0, 1), a pre-cancelled context or a contained
// panic): such an answer can never be decided by refinement, so the run
// fails fast with its partial bounds instead of silently cutting the
// answer by a meaningless estimate.
func (sc *sched) initErr() error {
	for _, r := range sc.refs {
		if err := r.Err(); err != nil && !errors.Is(err, core.ErrBudget) {
			return err
		}
	}
	return nil
}

// estimates snapshots every answer's estimate, step and node counts
// and convergence from its refiner.
func (sc *sched) estimates() {
	for i := range sc.items {
		res := sc.refs[i].Result()
		sc.items[i].P = res.Estimate
		sc.items[i].Converged = res.Converged
		sc.items[i].Steps = sc.refs[i].Steps()
		sc.items[i].Nodes = res.Nodes
	}
}

// sortByEstimate orders answer indices by estimate descending, index
// ascending — the deterministic output order.
func (sc *sched) sortByEstimate(idx []int) {
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := &sc.items[idx[a]], &sc.items[idx[b]]
		if ia.P != ib.P {
			return ia.P > ib.P
		}
		return ia.Index < ib.Index
	})
}

// result finalizes the ranking: marks the selected items and snapshots
// the run totals.
func (sc *sched) result(ranking []int) Result {
	for _, i := range ranking {
		sc.items[i].Selected = true
	}
	return Result{Items: sc.items, Ranking: ranking, Steps: sc.steps}
}

// TopK ranks the answers by confidence and returns the k most probable
// (all of them when k ≥ len(dnfs)), ties broken by input index. Bounds
// are refined only as far as membership demands: an answer proven
// in — fewer than k answers can possibly rank above it — or proven
// out — at least k answers certainly rank above it — is never refined
// again. The ordering within the selection therefore follows the
// current estimates, which for early-proven answers are only interval
// midpoints (Item.Converged false). On a context/timeout error the
// partial result so far is returned alongside the error.
//
// emit, when non-nil, is the streaming hook: it is called synchronously
// from the scheduling loop the moment an answer's membership is
// *proven* (fewer than k answers can possibly rank above it / its lower
// bound reached τ). The Item snapshot carries the bounds, estimate and
// step counts at proof time, with Selected and Decided already true and
// DecidedAtStep recording the scheduler's cumulative step count.
// Because answers decide in provable order, a consumer receives the
// proven members of the selection before the scheduler finishes
// refining the rest; borderline answers cut by estimate are never
// emitted and must be read from the final Result. emit must not block:
// the scheduler is stalled while it runs.
func TopK(ctx context.Context, s *formula.Space, dnfs []formula.DNF, k int, opt Options, emit func(Item)) (Result, error) {
	if k <= 0 {
		return Result{}, fmt.Errorf("rank: k must be positive, got %d", k)
	}
	return schedule(ctx, s, dnfs, opt, emit,
		func(sc *sched) { sc.decideTopK(k) },
		func(sc *sched) []int { return sc.selectTopK(k) })
}

// Threshold returns the answers whose confidence is at least tau,
// most probable first. An answer is proven in once its lower bound
// reaches tau and proven out once its upper bound drops below it;
// answers still straddling tau at the refinement floor are cut by
// estimate (Decided false). emit streams proven members as in TopK.
func Threshold(ctx context.Context, s *formula.Space, dnfs []formula.DNF, tau float64, opt Options, emit func(Item)) (Result, error) {
	return schedule(ctx, s, dnfs, opt, emit,
		func(sc *sched) { sc.decideThreshold(tau) },
		func(sc *sched) []int { return sc.selectThreshold(tau) })
}

// schedule is the shared driver of both cut modes: run the scheduling
// loop with the mode's membership rule, decide once more from the
// final bounds, and select.
func schedule(ctx context.Context, s *formula.Space, dnfs []formula.DNF, opt Options, emit func(Item),
	decide func(*sched), sel func(*sched) []int) (Result, error) {
	sc := newSched(ctx, s, dnfs, opt, emit)
	err := sc.initErr()
	if err == nil {
		err = sc.run(func() { decide(sc) })
	}
	decide(sc)
	sc.estimates()
	return sc.result(sel(sc)), err
}

// RefineAll is the non-pruning baseline: every answer refined to its
// Eps floor (or exactness), all answers selected, ranked by estimate.
// Its Steps total is what the schedulers are measured against.
func RefineAll(ctx context.Context, s *formula.Space, dnfs []formula.DNF, opt Options) (Result, error) {
	sc := newSched(ctx, s, dnfs, opt, nil)
	err := sc.initErr()
	for i := range sc.refs {
		for err == nil && !sc.refs[i].Done() {
			err = sc.grant(i)
		}
	}
	sc.estimates()
	ranking := make([]int, 0, len(sc.items))
	for i := range sc.items {
		sc.items[i].Decided = sc.items[i].Converged
		ranking = append(ranking, i)
	}
	sc.sortByEstimate(ranking)
	return sc.result(ranking), err
}

// run is the shared scheduling loop: decide memberships from the
// current bounds, grant grantSteps of refinement to the widest
// undecided answer, repeat until nothing undecided can be refined (or
// the context cuts the run short).
func (sc *sched) run(decide func()) error {
	for {
		if err := sc.ctx.Err(); err != nil {
			return err
		}
		decide()
		i := sc.pick()
		if i < 0 {
			return nil
		}
		if err := sc.grant(i); err != nil {
			return err
		}
	}
}

// decideTopK promotes undecided answers whose membership in the top-k
// set is already provable from the current intervals: out when at
// least k answers certainly rank above it, in when fewer than k
// answers possibly do. The first pass re-decides everything; after
// that, each grant tightened exactly one interval and only the
// answers that tightening can affect are re-decided, each in
// O(log n) against the sorted bound arrays — O(affected · log n) per
// grant in place of a full O(n²) rescan.
func (sc *sched) decideTopK(k int) {
	if sc.ix == nil {
		sc.ix = newDecideIndex(sc.items, true)
		for a := range sc.items {
			if sc.status[a] == undecided {
				sc.decideOneTopK(a, k)
			}
		}
		return
	}
	for _, a := range sc.ix.drain(sc) {
		if sc.status[a] == undecided {
			sc.decideOneTopK(a, k)
		}
	}
}

// decideOneTopK re-decides a single answer from the sorted bound
// arrays: certain beaters are the answers whose Lo clears its Hi,
// possible beaters the answers whose Hi clears its Lo. An equal bound
// clears only from a lower input index — the deterministic tie-break of
// the whole ranking — and the answer's own Hi > Lo entry is discounted.
func (sc *sched) decideOneTopK(a, k int) {
	it := &sc.items[a]
	if countAbove(sc.ix.los, it.Hi, a) >= k {
		sc.markOut(a)
		return
	}
	possible := countAbove(sc.ix.his, it.Lo, a)
	if it.Hi > it.Lo {
		possible-- // own entry counted among Hi > Lo
	}
	if possible < k {
		sc.markIn(a)
	}
}

// markIn records a proven membership and fires the streaming hook with
// a snapshot of the answer at proof time.
func (sc *sched) markIn(i int) {
	sc.opt.Metrics.RecordRankDecided(true)
	sc.status[i] = decidedIn
	sc.ph.remove(i)
	sc.items[i].DecidedAtStep = sc.steps
	if sc.emit == nil {
		return
	}
	it := sc.items[i]
	res := sc.refs[i].Result()
	it.P = res.Estimate
	it.Converged = res.Converged
	it.Steps = sc.refs[i].Steps()
	it.Nodes = res.Nodes
	it.Selected = true
	it.Decided = true
	sc.emit(it)
}

// markOut records a proven non-membership (never emitted: the stream
// carries the selection only).
func (sc *sched) markOut(i int) {
	sc.opt.Metrics.RecordRankDecided(false)
	sc.status[i] = decidedOut
	sc.ph.remove(i)
	sc.items[i].DecidedAtStep = sc.steps
}

// selectTopK builds the top-k selection: proven members first, then
// borderline answers by estimate until k are chosen.
func (sc *sched) selectTopK(k int) []int {
	var in, cand []int
	for i := range sc.items {
		switch sc.status[i] {
		case decidedIn:
			sc.items[i].Decided = true
			in = append(in, i)
		case decidedOut:
			sc.items[i].Decided = true
		default:
			cand = append(cand, i)
		}
	}
	sc.sortByEstimate(cand)
	for len(in) < k && len(cand) > 0 {
		in = append(in, cand[0])
		cand = cand[1:]
	}
	sc.sortByEstimate(in)
	return in
}

// decideThreshold is event-driven like decideTopK, but a τ-cut
// decision reads only the answer's own bounds, so each grant re-checks
// exactly the granted answer — O(1) per grant after the first pass.
func (sc *sched) decideThreshold(tau float64) {
	if sc.ix == nil {
		sc.ix = newDecideIndex(sc.items, false)
		for i := range sc.items {
			if sc.status[i] == undecided {
				sc.decideOneThreshold(i, tau)
			}
		}
		return
	}
	for _, i := range sc.ix.drain(sc) {
		if sc.status[i] == undecided {
			sc.decideOneThreshold(i, tau)
		}
	}
}

func (sc *sched) decideOneThreshold(i int, tau float64) {
	switch {
	case sc.items[i].Lo >= tau:
		sc.markIn(i)
	case sc.items[i].Hi < tau:
		sc.markOut(i)
	}
}

func (sc *sched) selectThreshold(tau float64) []int {
	var in []int
	for i := range sc.items {
		switch sc.status[i] {
		case decidedIn:
			sc.items[i].Decided = true
			in = append(in, i)
		case decidedOut:
			sc.items[i].Decided = true
		default:
			if sc.items[i].P >= tau {
				in = append(in, i)
			}
		}
	}
	sc.sortByEstimate(in)
	return in
}
