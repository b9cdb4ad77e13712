// Social-network motifs on Zachary's karate club (Section VI-A and
// VII-B): the probability that the probabilistic friendship graph
// contains a triangle, that its two hubs are within two degrees of
// separation, and a d-tree vs aconf timing comparison at decreasing
// relative errors — a miniature of Figure 9.
package main

import (
	"context"
	"fmt"
	"time"

	"repro"
	"repro/internal/graphs"
)

func main() {
	ctx := context.Background()
	g := graphs.Karate(42)
	s := g.Space()
	fmt.Printf("karate club: %d members, %d possible friendships\n\n", g.N, g.NumEdges())

	// Triangle motif (the query of Section VI-A).
	tri := g.TriangleDNF()
	res, err := repro.ApproxEval{Eps: 0.001, Kind: repro.Relative}.Evaluate(ctx, s, tri)
	if err != nil {
		panic(err)
	}
	fmt.Printf("P(some triangle of friends) ≈ %.6f  [%d clauses, %d d-tree nodes]\n",
		res.Estimate, len(tri), res.Nodes)

	// Two degrees of separation between the two club factions' hubs
	// (members 1 and 34 in the classic numbering), Figure 9's s2.
	sep := g.SeparationDNF(g.Hubs())
	sres, err := repro.ApproxEval{Eps: 0.0001, Kind: repro.Relative}.Evaluate(ctx, s, sep)
	if err != nil {
		panic(err)
	}
	fmt.Printf("P(hubs within 2 degrees)    ≈ %.6f  [%d clauses]\n\n", sres.Estimate, len(sep))

	// Timing sweep: d-tree vs the Karp-Luby/DKLR baseline.
	fmt.Println("relative error   d-tree          aconf")
	for _, eps := range []float64{0.05, 0.01, 0.001} {
		t0 := time.Now()
		dres, err := repro.ApproxEval{Eps: eps, Kind: repro.Relative}.Evaluate(ctx, s, tri)
		if err != nil {
			panic(err)
		}
		dt := time.Since(t0)

		t0 = time.Now()
		ares, err := repro.MonteCarloEval{Eps: eps, Delta: 0.0001, Budget: repro.Budget{MaxSamples: 2_000_000}, Seed: 7}.Evaluate(ctx, s, tri)
		if err != nil {
			panic(err)
		}
		at := time.Since(t0)
		acell := fmt.Sprintf("%-14v", at)
		if !ares.Converged {
			acell = "timeout"
		}
		fmt.Printf("%-16g %-15v %s   (d-tree %.6f, aconf %.6f)\n",
			eps, dt, acell, dres.Estimate, ares.Estimate)
	}
}
