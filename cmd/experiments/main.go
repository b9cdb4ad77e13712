// Command experiments regenerates the paper's evaluation figures
// (Figures 6–9 of Section VII) as measured tables.
//
// Usage:
//
//	experiments [-fig all|<id>,...] [-sf 0.002] [-seed 42]
//	            [-md] [-dtree-nodes N] [-aconf-samples N]
//
// The ids are exp.IDs(), in print order (-h lists them). The "route"
// figure prints the planner's EXPLAIN over the TPC-H catalog — which
// queries compile to safe plans, IQ sorted scans, or fall through to
// lineage + d-tree evaluation — compiled through the DB/Session/Query
// façade, the same path a serving client takes. The "topk" figure prints the anytime ranking subsystem's
// pruning table: refinement steps spent by the top-k / threshold
// schedulers versus evaluating every answer to ε, over the multi-answer
// workloads. The "obs" figure traces one ranked query.
//
// Figures 6–9 and the stats table render internal/exp's scenario
// list, the instances the root BenchmarkFigures also times. Every cell
// is one evaluation per answer on the calling goroutine, as in the
// paper's sequential runs.
//
// Defaults are scaled down to finish in minutes; raise -sf and the
// budgets for larger runs. -md emits GitHub markdown.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/exp"
)

func main() {
	p := exp.Small()
	ids := exp.IDs()
	fig := flag.String("fig", "all", "comma-separated figure ids ("+strings.Join(ids, ",")+") or all")
	flag.Float64Var(&p.SF, "sf", p.SF, "TPC-H scale factor")
	flag.Int64Var(&p.Seed, "seed", p.Seed, "generator seed")
	md := flag.Bool("md", false, "emit markdown instead of plain text")
	flag.IntVar(&p.DtreeMaxNodes, "dtree-nodes", p.DtreeMaxNodes, "d-tree node budget")
	flag.IntVar(&p.AconfMaxSample, "aconf-samples", p.AconfMaxSample, "aconf sample budget")
	flag.Parse()

	want := ids
	if *fig != "all" {
		want = nil
		for _, f := range strings.Split(*fig, ",") {
			f = strings.TrimSpace(strings.TrimPrefix(f, "fig"))
			if !slices.Contains(ids, f) {
				fmt.Fprintf(os.Stderr, "experiments: unknown figure %q (want %s)\n",
					f, strings.Join(ids, ","))
				os.Exit(1)
			}
			want = append(want, f)
		}
	}

	for _, f := range want {
		t := exp.Figure(f, p)
		if *md {
			t.WriteMarkdown(os.Stdout)
		} else {
			t.WriteText(os.Stdout)
		}
	}
}
