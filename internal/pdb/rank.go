package pdb

import (
	"context"

	"repro/internal/engine"
	"repro/internal/formula"
	"repro/internal/rank"
)

// ConfTopK is the ranking form of the conf() operator: it returns the
// k most probable answers, most probable first, refining answer bounds
// only as far as the top-k membership proof requires (see
// internal/rank). The full scheduler outcome — per-answer bounds,
// steps, and membership proofs for every answer including the pruned
// ones — is returned alongside. A context/timeout failure returns the
// partial outcome with the error.
//
// Deprecated: named only by bench/; call rank.TopK and RankedConfs.
func ConfTopK(ctx context.Context, s *formula.Space, answers []Answer, k int, opt rank.Options) ([]AnswerConf, rank.Result, error) {
	res, err := rank.TopK(ctx, s, Lineages(answers), k, opt, nil)
	return RankedConfs(answers, res), res, err
}

// Lineages returns the answers' lineage DNFs, in order: the input of
// the rank schedulers.
func Lineages(answers []Answer) []formula.DNF {
	dnfs := make([]formula.DNF, len(answers))
	for i, a := range answers {
		dnfs[i] = a.Lin
	}
	return dnfs
}

// RankedConf turns one scheduler outcome into an AnswerConf. Res
// carries the bounds and the refiner's node count at the point
// refinement stopped for the answer.
// Converged keeps its engine meaning — the estimate carries the Eps
// guarantee — which for early-proven answers with wide bounds is false
// (their P is the interval midpoint); the membership proof itself is
// rank.Item.Decided. Streaming consumers (the schedulers' emit hook, the
// plan/facade iterators) use it to shape emitted items exactly like the
// batch operators' results.
func RankedConf(a Answer, it rank.Item) AnswerConf {
	return AnswerConf{
		Vals: a.Vals,
		P:    it.P,
		Res: engine.Result{
			Lo: it.Lo, Hi: it.Hi, Estimate: it.P,
			Exact: it.Lo == it.Hi, Converged: it.Converged, Nodes: it.Nodes,
		},
		DecidedAtStep: it.DecidedAtStep,
	}
}

// RankedConfs turns the scheduler's selection into AnswerConf values in
// rank order.
func RankedConfs(answers []Answer, res rank.Result) []AnswerConf {
	out := make([]AnswerConf, 0, len(res.Ranking))
	for _, idx := range res.Ranking {
		out = append(out, RankedConf(answers[idx], res.Items[idx]))
	}
	return out
}
