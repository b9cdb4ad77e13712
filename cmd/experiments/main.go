// Command experiments regenerates the paper's evaluation figures
// (Figures 6–9 of Section VII) as measured tables.
//
// Usage:
//
//	experiments [-fig all|route,topk,6a,6b,6c,7,8,8c,9,stats,obs] [-sf 0.002] [-seed 42]
//	            [-md] [-dtree-nodes N] [-aconf-samples N] [-parallel N]
//
// The "route" figure prints the planner's EXPLAIN over the TPC-H
// catalog — which queries compile to safe plans, IQ sorted scans, or
// fall through to lineage + d-tree evaluation — compiled through the
// DB/Session/Query façade, the same path a serving client takes. The
// "topk" figure
// prints the anytime ranking subsystem's pruning table: refinement
// steps spent by the top-k / threshold schedulers versus evaluating
// every answer to ε, over the multi-answer workloads.
//
// Defaults are scaled down to finish in minutes; raise -sf and the
// budgets for larger runs. -md emits GitHub markdown. -parallel sizes
// the shared worker pool the engine explores independent d-tree
// branches on (default GOMAXPROCS; 1 reproduces the paper's sequential
// runs).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/exp"
	"repro/internal/workpool"
)

func main() {
	fig := flag.String("fig", "all", "comma-separated figure ids: route,topk,6a,6b,6c,7,8,8c,9,stats,obs or all")
	sf := flag.Float64("sf", 0, "TPC-H scale factor (default 0.002)")
	seed := flag.Int64("seed", 0, "generator seed (default 42)")
	md := flag.Bool("md", false, "emit markdown instead of plain text")
	dtreeNodes := flag.Int("dtree-nodes", 0, "d-tree node budget (default 3e6)")
	aconfSamples := flag.Int("aconf-samples", 0, "aconf sample budget (default 3e6)")
	parallel := flag.Int("parallel", 0, "worker-pool parallelism (default GOMAXPROCS, 1 = sequential)")
	flag.Parse()

	if *parallel > 0 {
		workpool.Default.Resize(*parallel)
	}

	p := exp.Params{
		SF: *sf, Seed: *seed,
		DtreeMaxNodes: *dtreeNodes, AconfMaxSample: *aconfSamples,
	}

	run := map[string]func() *exp.Table{
		"route": func() *exp.Table { return exp.RoutingTable(p) },
		"topk":  func() *exp.Table { return exp.TopKFigure(p) },
		"6a":    func() *exp.Table { return exp.Fig6a(p) },
		"6b":    func() *exp.Table { return exp.Fig6b(p) },
		"6c":    func() *exp.Table { return exp.Fig6c(p) },
		"7":     func() *exp.Table { return exp.Fig7(p, nil) },
		"8":     func() *exp.Table { return exp.Fig8(p, nil) },
		"8c":    func() *exp.Table { return exp.Fig8c(p, nil) },
		"9":     func() *exp.Table { return exp.Fig9(p, nil) },
		"stats": func() *exp.Table { return exp.NodeStats(p) },
		"obs":   func() *exp.Table { return exp.ObsTable(p) },
	}
	order := []string{"route", "topk", "6a", "6b", "6c", "7", "8", "8c", "9", "stats", "obs"}

	var want []string
	if *fig == "all" {
		want = order
	} else {
		for _, f := range strings.Split(*fig, ",") {
			f = strings.TrimSpace(strings.TrimPrefix(f, "fig"))
			if _, ok := run[f]; !ok {
				fmt.Fprintf(os.Stderr, "experiments: unknown figure %q (want %s)\n",
					f, strings.Join(order, ","))
				os.Exit(1)
			}
			want = append(want, f)
		}
	}

	for _, f := range want {
		t := run[f]()
		if *md {
			t.WriteMarkdown(os.Stdout)
		} else {
			t.WriteText(os.Stdout)
		}
	}
}
