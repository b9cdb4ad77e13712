package plan

import (
	"context"
	"iter"

	"repro/internal/engine"
	"repro/internal/formula"
	"repro/internal/obs"
	"repro/internal/pdb"
)

// StreamTraced executes the plan, delivering answers as an iterator
// instead of a materialized slice. On a ranked lineage-route plan the
// stream is genuinely anytime: each answer is yielded synchronously
// from inside the scheduling loop the moment its top-k/threshold
// membership is proven (rank.TopK's emit hook), so the first answer of
// a top-10-of-240 query arrives before refinement of the other 230
// finishes. Borderline answers the scheduler cut by estimate (Decided
// false in the scheduler's terms) follow after the run completes, in
// rank order. The structural routes and unranked plans compute their
// answers first and then yield them one by one — exact routes have no
// intermediate state worth streaming.
//
// Breaking out of the iteration cancels the in-flight scheduler run
// promptly; no goroutines are involved, so an abandoned stream leaks
// nothing. A failure (context cancellation, timeout) ends the stream
// with a final (zero answer, error) pair after whatever prefix of
// answers was proven — the partial, error-carrying iterator.
//
// The lineage pipeline runs through a caller-owned clause interner in
// (nil allocates a fresh one; see Lineage), and tr — the per-query
// EXPLAIN ANALYZE trace — receives the routing decision, stage timings
// and per-answer outcomes. A nil tr records nothing; the yielded
// answers are bitwise identical either way. The trace's answer section
// reflects the scheduler's final ranking even when the consumer breaks
// out early.
func (p *Plan) StreamTraced(ctx context.Context, s *formula.Space, ev engine.Evaluator, in *formula.Interner, tr *obs.QueryTrace) iter.Seq2[pdb.AnswerConf, error] {
	return func(yield func(pdb.AnswerConf, error) bool) {
		if ctx == nil {
			ctx = context.Background()
		}
		sctx, cancel := context.WithCancel(ctx)
		defer cancel()
		// The scheduler calls the hook synchronously mid-loop; when the
		// consumer breaks we must stop yielding and abort the run, and
		// afterwards suppress the cancellation error we induced.
		stopped := false
		var emitted map[int]bool
		confs, ranking, err := p.answers(sctx, s, ev, in, tr, func(idx int, c pdb.AnswerConf) {
			if stopped {
				return
			}
			if emitted == nil {
				emitted = make(map[int]bool, 8)
			}
			emitted[idx] = true
			if !yield(c, nil) {
				stopped = true
				cancel()
			}
		})
		if stopped {
			return
		}
		// Whatever was not proven mid-run — borderline answers cut by
		// estimate and every answer of the routes that never call the
		// hook — follows in result order.
		for i, c := range confs {
			if emitted != nil && emitted[ranking[i]] {
				continue
			}
			if !yield(c, nil) {
				return
			}
		}
		if err != nil {
			yield(pdb.AnswerConf{}, err)
		}
	}
}
