// Quickstart: the DB → Session → Query → stream lifecycle of the
// façade, then the paper's Example 5.2 evaluated directly through the
// Evaluator menu.
//
// The façade part builds a tiny probabilistic order database, opens a
// session, declares a fluent query, and streams its answers; the
// direct part computes P(Φ) for
//
//	Φ = (x ∧ y) ∨ (x ∧ z) ∨ v
//	P(x)=0.3  P(y)=0.2  P(z)=0.7  P(v)=0.8   ⇒  P(Φ) = 0.8456
//
// with d-trees, bounds, and the Karp-Luby/DKLR baseline.
package main

import (
	"context"
	"fmt"

	"repro"
	"repro/internal/formula"
	"repro/internal/pdb"
)

func main() {
	// ------------------------------------------------------------------
	// 1. DB: a probability space and the relations registered over it.
	// ------------------------------------------------------------------
	s := formula.NewSpace()
	orders := pdb.NewTupleIndependent(s, "orders",
		[]string{"order", "customer"},
		[][]pdb.Value{{100, 1}, {101, 1}, {102, 2}, {103, 2}},
		[]float64{0.9, 0.5, 0.8, 0.6}, 1)
	disputes := pdb.NewTupleIndependent(s, "disputes",
		[]string{"order"},
		[][]pdb.Value{{100}, {102}, {103}},
		[]float64{0.4, 0.7, 0.2}, 2)
	db := repro.NewDB(s, orders, disputes)

	// ------------------------------------------------------------------
	// 2. Session: per-client cache, default budget and evaluator.
	// ------------------------------------------------------------------
	sess := db.Session()

	// ------------------------------------------------------------------
	// 3. Query: fluent builder, compiled to the plan IR and routed.
	// ------------------------------------------------------------------
	q := sess.Query("orders").
		Join(sess.Query("disputes"), 0, 0). // orders.order = disputes.order
		GroupLineage(1)                     // per-customer lineage
	explain, err := q.Explain()
	if err != nil {
		panic(err)
	}
	fmt.Println("plan:", explain)

	// ------------------------------------------------------------------
	// 4. Stream: Run yields answers as an iter.Seq2.
	// ------------------------------------------------------------------
	fmt.Println("P(customer has a disputed order):")
	for a, err := range q.Run(context.Background()) {
		if err != nil {
			panic(err)
		}
		fmt.Printf("  customer %d: P=%.4f  [%.4f, %.4f]\n", a.Vals[0], a.P, a.Res.Lo, a.Res.Hi)
	}

	// Ranked queries stream anytime on the lineage route: the first
	// answer arrives as soon as its membership is proven.
	top, err := sess.Query("orders").Join(sess.Query("disputes"), 0, 0).
		GroupLineage(1).TopK(1).All(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Printf("most disputed customer: %d (P=%.4f)\n\n", top[0].Vals[0], top[0].P)

	// ------------------------------------------------------------------
	// 5. Observe: EXPLAIN ANALYZE re-runs a prepared query and returns
	//    its trace — route, stage volumes, per-answer outcomes, caches.
	// ------------------------------------------------------------------
	pr, err := q.Build()
	if err != nil {
		panic(err)
	}
	tr, err := pr.Analyze(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Print(tr.String())
	fmt.Printf("queries so far: %d (wall mean %.0fµs)\n\n",
		db.Snapshot().Queries, db.Snapshot().QueryWallMicros.Mean())

	// ------------------------------------------------------------------
	// The Evaluator menu on one lineage DNF (Example 5.2).
	// ------------------------------------------------------------------
	ctx := context.Background()
	e := formula.NewSpace()
	x := e.AddBool(0.3)
	y := e.AddBool(0.2)
	z := e.AddBool(0.7)
	v := e.AddBool(0.8)
	for i, name := range []string{"x", "y", "z", "v"} {
		e.SetName(formula.Var(i), name)
	}
	phi := formula.NewDNF(
		formula.MustClause(formula.Pos(x), formula.Pos(y)),
		formula.MustClause(formula.Pos(x), formula.Pos(z)),
		formula.MustClause(formula.Pos(v)),
	)
	fmt.Println("Φ =", phi.String(e))

	lo, hi := repro.Bounds(e, phi)
	fmt.Printf("bucket bounds:          [%.4f, %.4f]\n", lo, hi)
	exact, err := repro.ApproxEval{}.Evaluate(ctx, e, phi) // Eps 0: exact
	if err != nil {
		panic(err)
	}
	fmt.Printf("exact (d-tree):         %.4f\n", exact.Estimate)

	abs, err := repro.ApproxEval{Eps: 0.004, Kind: repro.Absolute}.Evaluate(ctx, e, phi)
	if err != nil {
		panic(err)
	}
	fmt.Printf("absolute ε=0.004:       %.4f  (bounds [%.4f, %.4f], %d nodes)\n",
		abs.Estimate, abs.Lo, abs.Hi, abs.Nodes)

	res, err := repro.MonteCarloEval{Eps: 0.01, Delta: 0.001, Seed: 1}.Evaluate(ctx, e, phi)
	if err != nil {
		panic(err)
	}
	fmt.Printf("aconf (Karp-Luby/DKLR): %.4f  (%d samples)\n", res.Estimate, res.Samples)
}
