package exp

import (
	"context"
	"fmt"
	"time"

	"repro/internal/formula"
	"repro/internal/graphs"
	"repro/internal/pdb"
	"repro/internal/plan"
	"repro/internal/rank"
	"repro/internal/tpch"
)

// The top-k pruning figure is not in the paper — it measures what the
// anytime ranking subsystem (internal/rank) buys over evaluating every
// answer to ε: for each multi-answer workload, the refinement steps the
// top-k / threshold schedulers spend versus the full-evaluation
// baseline, and how tight the pruned answers' bounds were left.

// topkEps is the refinement floor used by the figure: tight enough
// that full evaluation does real work, matching the d-tree(.001)
// configurations of the paper's figures.
const topkEps = 1e-3

// rankRun measures one scheduler invocation against the (shared)
// RefineAll baseline step count on the same answers.
func rankRun(t *Table, workload, mode, cut string, dnfs []formula.DNF, fullSteps int,
	run func() (rank.Result, error)) {
	start := time.Now()
	res, err := run()
	el := float64(time.Since(start).Microseconds()) / 1000
	if err != nil {
		t.Rows = append(t.Rows, errRow(t, workload, fmt.Sprint(len(dnfs)), mode, cut, "ERR "+err.Error()))
		return
	}
	decided := 0
	maxWidth := 0.0
	for _, it := range res.Items {
		if it.Decided {
			decided++
		}
		if w := it.Hi - it.Lo; w > maxWidth {
			maxWidth = w
		}
	}
	saved := "-"
	if fullSteps > 0 {
		saved = fmt.Sprintf("%.0f%%", 100*(1-float64(res.Steps)/float64(fullSteps)))
	}
	t.Rows = append(t.Rows, []string{
		workload, fmt.Sprint(len(dnfs)), mode, cut,
		fmt.Sprintf("%d/%d", len(res.Ranking), decided),
		fmt.Sprint(res.Steps), fmt.Sprint(fullSteps), saved,
		fmt.Sprintf("%.3g", maxWidth), ms(el),
	})
}

// errRow pads a partial row to the table's width so rendering and the
// cell-count invariants hold even for failures.
func errRow(t *Table, cells ...string) []string {
	for len(cells) < len(t.Header) {
		cells = append(cells, "-")
	}
	return cells
}

// topkFigure measures the anytime ranking subsystem over the
// multi-answer workloads: TPC-H Q1/Q15 answer sets and
// pairwise-separation queries on the social networks.
func topkFigure(p Params) *Table {
	t := &Table{
		ID: "topk",
		Title: fmt.Sprintf("anytime top-k / threshold ranking vs full evaluation, SF %g, ε %g",
			p.SF, topkEps),
		Header: []string{"workload", "answers", "mode", "cut", "selected/proven",
			"steps", "full steps", "saved", "max width", "time"},
		Notes: []string{
			"steps = d-tree leaf refinements granted by the scheduler; full steps = refining every answer to ε (rank.RefineAll)",
			"selected/proven = answers returned / answers whose membership was proven by bound separation",
			"max width = widest bound interval left on any answer when its refinement stopped",
		},
	}

	db := tpch.Generate(tpch.Config{SF: p.SF, ProbHigh: 1, Seed: p.Seed})
	for _, q := range []string{"Q1", "Q15"} {
		addRankRows(t, "tpch "+q, db.Space, pdb.Lineages(plan.Lineage(db.Query(q))))
	}
	for _, nw := range networks(p.Seed) {
		addRankRows(t, nw.name+" node-triangle", nw.g.Space(), triangleAnswers(nw.g))
	}
	return t
}

// addRankRows measures top-k and threshold cuts over one answer set,
// against one shared full-evaluation baseline.
func addRankRows(t *Table, name string, s *formula.Space, dnfs []formula.DNF) {
	if len(dnfs) == 0 {
		t.Rows = append(t.Rows, errRow(t, name, "0"))
		return
	}
	k := 10
	if k > len(dnfs) {
		k = len(dnfs)
	}
	opt := rank.Options{Eps: topkEps}
	full, err := rank.RefineAll(context.Background(), s, dnfs, opt)
	if err != nil {
		t.Rows = append(t.Rows, errRow(t, name, fmt.Sprint(len(dnfs)), "-", "-", "ERR "+err.Error()))
		return
	}
	rankRun(t, name, "top-k", fmt.Sprintf("k=%d", k), dnfs, full.Steps, func() (rank.Result, error) {
		return rank.TopK(context.Background(), s, dnfs, k, opt, nil)
	})
	rankRun(t, name, "threshold", "τ=0.5", dnfs, full.Steps, func() (rank.Result, error) {
		return rank.Threshold(context.Background(), s, dnfs, 0.5, opt, nil)
	})
}

// triangleAnswers builds the per-node triangle-participation answer
// set: for each node, the lineage of "this node is in a triangle"
// (graphs.NodeTriangleDNF) — ranking "which node is most likely in a
// triangle?" over genuinely overlapping answers. Nodes in no possible
// triangle are skipped.
func triangleAnswers(g *graphs.Graph) []formula.DNF {
	var out []formula.DNF
	for v := 0; v < g.N; v++ {
		if d := g.NodeTriangleDNF(v); len(d) > 0 {
			out = append(out, d)
		}
	}
	return out
}
