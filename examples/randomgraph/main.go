// Random-graph motif probabilities: sweep clique sizes and edge
// probabilities, reproducing the easy-hard-easy pattern of Section
// VII-B in miniature — d-tree converges quickly for high edge
// probabilities, works hardest in the critical region, and handles
// low-probability regimes with relative-error guarantees where naive
// sampling would need enormous sample counts.
package main

import (
	"context"
	"fmt"
	"time"

	"repro"
	"repro/internal/graphs"
)

func main() {
	// Following the paper: relative error 0.01 for edge probabilities
	// ≥ 0.3 (Figure 8 top), absolute error 0.05 for small edge
	// probabilities (Figure 8 bottom), where a relative guarantee on a
	// near-zero probability would force near-exhaustive compilation.
	ctx := context.Background()
	const maxWork = 50_000_000
	fmt.Println("P(triangle) on random n-cliques")
	fmt.Println("nodes  edge-p  error     clauses  P(triangle)  d-tree nodes  time")
	for _, n := range []int{6, 10, 15, 20, 25} {
		for _, p := range []float64{0.01, 0.1, 0.3, 0.7} {
			g := graphs.Complete(n, p)
			d := g.TriangleDNF()
			ev := repro.ApproxEval{Eps: 0.01, Kind: repro.Relative, MaxWork: maxWork}
			errLabel := "rel .01"
			if p < 0.3 {
				ev = repro.ApproxEval{Eps: 0.05, Kind: repro.Absolute, MaxWork: maxWork}
				errLabel = "abs .05"
			}
			t0 := time.Now()
			res, err := ev.Evaluate(ctx, g.Space(), d)
			if err != nil {
				fmt.Printf("%-6d %-7g %-9s %-8d timeout\n", n, p, errLabel, len(d))
				continue
			}
			fmt.Printf("%-6d %-7g %-9s %-8d %-12.6g %-13d %v\n",
				n, p, errLabel, len(d), res.Estimate, res.Nodes, time.Since(t0))
		}
	}

	// The uniform-worlds sanity check of Section VII-B: with p = 1/2 a
	// random graph's worlds are uniform over all subgraphs of the clique.
	g := graphs.Complete(6, 0.5)
	d := g.TriangleDNF()
	res, _ := repro.ApproxEval{Eps: 0.0001, Kind: repro.Absolute}.Evaluate(ctx, g.Space(), d)
	fmt.Printf("\nuniform K6: P(triangle) ≈ %.6f over 2^15 equiprobable worlds\n", res.Estimate)
}
