// Topk: anytime multi-answer ranking, from the raw scheduler to the
// streaming façade.
//
// The walkthrough ranks "which node of the karate network is most
// likely to sit in a triangle?" three ways:
//
//  1. rank.TopK over the per-node lineage DNFs — the paper-faithful
//     direct surface: the scheduler interleaves bound refinement
//     across answers and stops as soon as the top-k membership is
//     proven, reporting how many refinement steps it spent versus the
//     evaluate-everything baseline;
//  2. rank.Threshold — all nodes with P ≥ τ, same machinery;
//  3. the DB/Session/Query façade over the same relation-shaped
//     workload — Query(...).GroupLineage(...).TopK(k).Run(ctx) streams
//     each answer the moment its membership is proven (arrival order
//     printed), and a TopK over a safe-routed TPC-H query
//     short-circuits to an exact sort.
package main

import (
	"context"
	"fmt"

	"repro"
	"repro/internal/formula"
	"repro/internal/graphs"
	"repro/internal/pdb"
	"repro/internal/rank"
	"repro/internal/tpch"
)

func main() {
	g := graphs.Karate(42)

	// One answer per node: the triangle clauses containing it. Answers
	// share edge variables (each triangle feeds three answers).
	var nodes []int
	var dnfs []formula.DNF
	for v := 0; v < g.N; v++ {
		if d := g.NodeTriangleDNF(v); len(d) > 0 {
			nodes = append(nodes, v)
			dnfs = append(dnfs, d)
		}
	}
	fmt.Printf("karate: %d nodes with possible triangles\n\n", len(nodes))

	// Top-5 nodes, refining bounds only until membership is proven.
	opt := rank.Options{Eps: 1e-3} // absolute ±0.001 refinement floor
	top, err := rank.TopK(context.Background(), g.Space(), dnfs, 5, opt, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println("top-5 nodes by triangle confidence:")
	for pos, i := range top.Ranking {
		it := top.Items[i]
		fmt.Printf("  %d. node %2d  P≈%.4f  bounds [%.4f, %.4f]  proven=%v\n",
			pos+1, nodes[i], it.P, it.Lo, it.Hi, it.Decided)
	}
	full, err := rank.RefineAll(context.Background(), g.Space(), dnfs, opt)
	if err != nil {
		panic(err)
	}
	if full.Steps > 0 {
		fmt.Printf("scheduler steps: %d   full evaluation: %d (%.0f%% saved)\n\n",
			top.Steps, full.Steps, 100*(1-float64(top.Steps)/float64(full.Steps)))
	} else {
		fmt.Println("all answers exact at preparation: nothing to refine")
	}

	// Threshold cut: every node with P ≥ 0.9.
	th, err := rank.Threshold(context.Background(), g.Space(), dnfs, 0.9, opt, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("nodes with P(triangle) ≥ 0.9: %d of %d (%d steps)\n\n",
		len(th.Ranking), len(dnfs), th.Steps)

	// The same ranking through the façade, streamed: pack the triangle
	// lineage into a relation (one tuple per clause, grouped by node)
	// and watch answers arrive the moment their membership is proven —
	// before refinement of the other nodes finishes.
	rel := &pdb.Relation{Name: "triangles", Cols: []string{"node"}}
	for i, d := range dnfs {
		for _, cl := range d {
			rel.Tups = append(rel.Tups, pdb.Tuple{Vals: []pdb.Value{pdb.Value(nodes[i])}, Lin: cl})
		}
	}
	fdb := repro.NewDB(g.Space(), rel)
	sess := fdb.Session(repro.WithEps(1e-3))
	fmt.Println("façade stream, top-5 in proof order:")
	arrival := 0
	for a, err := range sess.Query("triangles").GroupLineage(0).TopK(5).Run(context.Background()) {
		if err != nil {
			panic(err)
		}
		arrival++
		fmt.Printf("  arrived %d: node %2d  P≈%.4f  [%.4f, %.4f]\n",
			arrival, a.Vals[0], a.P, a.Res.Lo, a.Res.Hi)
	}
	fmt.Println()

	// At the query level over TPC-H: a TopK root on Q15. The planner
	// routes the inner query to a safe plan, so the ranking
	// short-circuits to an exact sort — no scheduler needed.
	db := tpch.Generate(tpch.Config{SF: 0.002, ProbHigh: 1, Seed: 42})
	tdb := repro.NewDB(db.Space, db.Relations()...)
	tsess := tdb.Session()
	q, err := tsess.Query(db.Query("Q15")).TopK(3).Build()
	if err != nil {
		panic(err)
	}
	fmt.Println("plan:", q.Explain())
	answers, err := q.All(context.Background())
	if err != nil {
		panic(err)
	}
	for pos, a := range answers {
		fmt.Printf("  %d. supplier %v  P=%.6f\n", pos+1, a.Vals, a.P)
	}
}
