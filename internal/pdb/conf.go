package pdb

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/formula"
	"repro/internal/obs"
	"repro/internal/workpool"
)

// AnswerConf is an answer tuple with its computed confidence.
type AnswerConf struct {
	Vals []Value
	// P is the confidence estimate (meaningful when Err is nil).
	P float64
	// Res carries the full evaluation outcome (bounds, node counts,
	// cache traffic).
	Res engine.Result
	// Err records this answer's evaluation failure, if any; other
	// answers of the batch are unaffected.
	Err error
	// DecidedAtStep, on answers produced by the anytime ranking
	// schedulers, is the scheduler's cumulative step count at the moment
	// this answer's membership was proven (see rank.Item.DecidedAtStep);
	// zero on unranked answers and on borderline answers cut by
	// estimate. A streamed answer whose DecidedAtStep is strictly below
	// the run's final step count was delivered before refinement of the
	// remaining answers finished — the wire-visible anytime proof.
	DecidedAtStep int
}

// ConfWith is the conf() operator: it computes the confidence of every
// answer with the given evaluator, fanning the batch out on pool (nil
// means the shared workpool.Default), one task per answer. A per-answer
// failure (typically a budget exhaustion) is recorded on that answer
// instead of aborting the batch; the returned error aggregates every
// per-answer error. Cancelling ctx stops in-flight evaluations promptly
// and marks unstarted answers with the context's error. The returned
// slice always has one entry per answer, in answer order. The last
// parameter is unread; only bench/ names it.
func ConfWith(ctx context.Context, s *formula.Space, answers []Answer, ev engine.Evaluator, pool *workpool.Pool, _ []int) ([]AnswerConf, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]AnswerConf, len(answers))
	one := func(i int) {
		a := answers[i]
		out[i].Vals = a.Vals
		if err := ctx.Err(); err != nil {
			out[i].Err = err
			return
		}
		// A panicking evaluation fails this answer alone — contained
		// here (before the pool's batch-level containment) so sibling
		// answers keep their results and the batch completes, exactly
		// like a per-answer budget exhaustion.
		defer func() {
			if v := recover(); v != nil {
				pe, first := fault.Promote(v, "pdb.conf")
				if first {
					evalMetrics(ev).RecordPanicRecovered()
				}
				out[i].Err = pe
			}
		}()
		res, err := ev.Evaluate(ctx, s, a.Lin)
		out[i].P = res.Estimate
		out[i].Res = res
		out[i].Err = err
	}
	tasks := make([]func(), len(answers))
	for i := range answers {
		tasks[i] = func() { one(i) }
	}
	pool.Run(tasks...)
	// Aggregate per-answer failures, collapsing context errors into one
	// entry: on cancellation every answer carries the same error, and
	// joining thousands of identical lines helps nobody.
	ctxErr := ctx.Err()
	var errs []error
	for i := range out {
		if out[i].Err == nil || (ctxErr != nil && errors.Is(out[i].Err, ctxErr)) {
			continue
		}
		errs = append(errs, fmt.Errorf("answer %d %v: %w", i, out[i].Vals, out[i].Err))
	}
	if ctxErr != nil {
		errs = append(errs, ctxErr)
	}
	return out, errors.Join(errs...)
}

// evalMetrics extracts the engine registry an evaluator carries, if
// any — the conf() operator has no registry of its own, and panic
// recoveries are counted at their first capture point. Evaluate has
// value receivers, so the pointer forms are evaluators too.
func evalMetrics(ev engine.Evaluator) *obs.Metrics {
	switch e := ev.(type) {
	case engine.Approx:
		return e.Metrics
	case *engine.Approx:
		if e != nil {
			return e.Metrics
		}
	}
	return nil
}
