package rank

import (
	"context"
	"fmt"

	"repro/internal/formula"
)

// The oracle: the scheduler as it ran before decide.go's event-driven
// index and width heap — a full O(n²) rescan of all answer pairs before
// every grant and a linear widest-interval pick — moved here verbatim
// from rank.go. It drives the production newSched / grant / markIn /
// markOut (their index and heap hooks are nil-safe and stay nil), so
// the differential tests isolate exactly the decide pass and the pick:
// both schedulers must make identical decisions in identical order.

// refTopK is TopK on the oracle scheduler.
func refTopK(ctx context.Context, s *formula.Space, dnfs []formula.DNF, k int, opt Options, emit func(Item)) (Result, error) {
	if k <= 0 {
		return Result{}, fmt.Errorf("rank: k must be positive, got %d", k)
	}
	return refSchedule(ctx, s, dnfs, opt, emit,
		func(sc *sched) { sc.decideTopKFull(k) },
		func(sc *sched) []int { return sc.selectTopK(k) })
}

// refThreshold is Threshold on the oracle scheduler.
func refThreshold(ctx context.Context, s *formula.Space, dnfs []formula.DNF, tau float64, opt Options, emit func(Item)) (Result, error) {
	return refSchedule(ctx, s, dnfs, opt, emit,
		func(sc *sched) { sc.decideThresholdFull(tau) },
		func(sc *sched) []int { return sc.selectThreshold(tau) })
}

// refSchedule is schedule with run's loop picking by linear scan.
func refSchedule(ctx context.Context, s *formula.Space, dnfs []formula.DNF, opt Options, emit func(Item),
	decide func(*sched), sel func(*sched) []int) (Result, error) {
	sc := newSched(ctx, s, dnfs, opt, emit)
	err := sc.initErr()
	for err == nil {
		if err = sc.ctx.Err(); err != nil {
			break
		}
		decide(sc)
		i := sc.pickFull()
		if i < 0 {
			break
		}
		err = sc.grant(i)
	}
	decide(sc)
	sc.estimates()
	return sc.result(sel(sc)), err
}

// pickFull returns the undecided answer with the widest interval that
// can still be refined, or -1; width ties go to the lower index.
func (sc *sched) pickFull() int {
	best, bestW := -1, -1.0
	for i := range sc.items {
		if sc.status[i] != undecided || sc.refs[i].Done() {
			continue
		}
		if w := sc.items[i].Hi - sc.items[i].Lo; w > bestW {
			best, bestW = i, w
		}
	}
	return best
}

// beats reports that answer b certainly ranks above answer a under
// every probability assignment consistent with the current bounds,
// with ties broken deterministically by input index: when b.Lo == a.Hi
// the only non-beating case is an exact tie, which the lower index
// wins.
func beats(b, a *Item) bool {
	if b.Lo > a.Hi {
		return true
	}
	return b.Lo == a.Hi && b.Index < a.Index
}

// decideTopKFull re-decides every undecided answer by a full rescan of
// all answer pairs.
func (sc *sched) decideTopKFull(k int) {
	n := len(sc.items)
	for a := 0; a < n; a++ {
		if sc.status[a] != undecided {
			continue
		}
		certain, possible := 0, 0
		for b := 0; b < n; b++ {
			if b == a {
				continue
			}
			switch {
			case beats(&sc.items[b], &sc.items[a]):
				certain++
				possible++
			case !beats(&sc.items[a], &sc.items[b]):
				possible++
			}
			if certain >= k {
				break // already provably out; possible no longer matters
			}
		}
		switch {
		case certain >= k:
			sc.markOut(a)
		case possible < k:
			sc.markIn(a)
		}
	}
}

// decideThresholdFull re-checks every undecided answer before every
// grant.
func (sc *sched) decideThresholdFull(tau float64) {
	for i := range sc.items {
		if sc.status[i] != undecided {
			continue
		}
		switch {
		case sc.items[i].Lo >= tau:
			sc.markIn(i)
		case sc.items[i].Hi < tau:
			sc.markOut(i)
		}
	}
}
