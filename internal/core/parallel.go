package core

import (
	"repro/internal/formula"
)

// parMinClauses is the fan-out threshold: independent children are
// handed to the worker pool only when they jointly carry at least this
// many clauses. Below it, goroutine handoff costs more than the work.
const parMinClauses = 48

// exactCtxStride is how many d-tree nodes pass between context polls on
// the exact path: prompt cancellation (nodes cost microseconds) without
// per-node locking of the context's cancellation state.
const exactCtxStride = 256

// parallelizable reports whether a group of sibling fragments should be
// explored on the worker pool.
func (st *state) parallelizable(subs []formula.DNF) bool {
	if len(subs) < 2 || !st.pooled {
		return false
	}
	total := 0
	for _, sub := range subs {
		total += len(sub)
	}
	return total >= parMinClauses
}

// exactChildren computes the exact probability of every child fragment,
// in parallel when worthwhile. The result slice is ordered like subs and
// callers combine it in index order, so the probabilities (and their
// floating-point rounding) are identical to a sequential run. Errors are
// reported in index order for the same reason. normalized and reduced
// are the construction flags the children share (see leafHead).
func (st *state) exactChildren(subs []formula.DNF, normalized, reduced bool) ([]float64, error) {
	ps := make([]float64, len(subs))
	if !st.parallelizable(subs) {
		for i, sub := range subs {
			p, err := st.exactRec(sub, normalized, reduced)
			if err != nil {
				return nil, err
			}
			ps[i] = p
		}
		return ps, nil
	}
	errs := make([]error, len(subs))
	tasks := make([]func(), len(subs))
	for i := range subs {
		tasks[i] = func() { ps[i], errs[i] = st.exactRec(subs[i], normalized, reduced) }
	}
	st.opt.Pool.RunAbort(st.poison, tasks...)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ps, nil
}
