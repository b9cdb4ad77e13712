// Probabilistic TPC-H through the DB/Session/Query façade: generate a
// tuple-independent TPC-H database, register its relations with a
// repro.DB, and run the catalog queries through sessions — the planner
// routes each to its cheapest algorithm (exact safe plans for
// hierarchical queries, sorted scans for inequality (IQ) queries, and
// lineage + d-tree confidence computation for the #P-hard ones,
// Section VII-A in miniature), and answers stream out of Run.
package main

import (
	"context"
	"fmt"
	"time"

	"repro"
	"repro/internal/tpch"
)

func main() {
	db := tpch.Generate(tpch.Config{SF: 0.002, ProbHigh: 1, Seed: 7})
	fmt.Printf("generated TPC-H SF=0.002: %d lineitems, %d orders, %d parts\n\n",
		db.Lineitem.Len(), db.Orders.Len(), db.Part.Len())
	ctx := context.Background()
	exact := func(d repro.DNF) float64 {
		res, err := repro.ApproxEval{}.Evaluate(ctx, db.Space, d) // Eps 0: exact
		if err != nil {
			panic(err)
		}
		return res.Estimate
	}

	// The façade root: one DB owning the space and the catalog's
	// relations; sessions scope caches and evaluator defaults.
	fdb := repro.NewDB(db.Space, db.Relations()...)
	sess := fdb.Session()

	// The planner's EXPLAIN: pre-built catalog IR runs through the
	// façade via sess.Query(node).
	fmt.Println("planner routing:")
	for _, entry := range db.Catalog() {
		explain, err := sess.Query(entry.Node).Explain()
		if err != nil {
			panic(err)
		}
		fmt.Printf("  %-5s %-13s %s\n", entry.Name, entry.Class, explain)
	}

	// Tractable join: routed to a safe plan; d-tree(0) over the same
	// query's lineage must agree exactly. (A Boolean query with no
	// qualifying tuples returns no answers — certainly false.)
	b17, err := sess.Query(db.Query("B17")).Build()
	if err != nil {
		panic(err)
	}
	routed, err := b17.All(ctx)
	if err != nil {
		panic(err)
	}
	if lineage := b17.Plan().Lineage(); len(routed) == 0 {
		fmt.Printf("\nB17 (tractable join): no answer (certainly false)\n")
	} else {
		fmt.Printf("\nB17 (tractable join): %d clauses, route=%s\n", len(lineage[0].Lin), b17.Plan().Route)
		fmt.Printf("  safe plan:  %.8f\n  d-tree(0):  %.8f\n", routed[0].P, exact(lineage[0].Lin))
	}

	// Tractable inequality chain: routed to an IQ sorted scan.
	iq6, err := sess.Query(db.Query("IQ6")).Build()
	if err != nil {
		panic(err)
	}
	iqAnswers, err := iq6.All(ctx)
	if err != nil {
		panic(err)
	}
	if iqLineage := iq6.Plan().Lineage(); len(iqAnswers) == 0 {
		fmt.Printf("\nIQ6 (chain inequality): no answer (certainly false)\n")
	} else {
		fmt.Printf("\nIQ6 (chain inequality): %d clauses, route=%s\n", len(iqLineage[0].Lin), iq6.Plan().Route)
		fmt.Printf("  IQ scan:    %.8f\n  d-tree(0):  %.8f\n",
			iqAnswers[0].P, exact(iqLineage[0].Lin))
	}

	// Hard query: the planner falls back to lineage + d-tree; the
	// session's evaluator decides the algorithm (here the
	// ε-approximation with guarantees).
	hardSess := fdb.Session(repro.WithEvaluator(repro.ApproxEval{Eps: 0.01, Kind: repro.Relative}))
	b21 := hardSess.Query(db.Query("B21"))
	t0 := time.Now()
	hard, err := b21.All(ctx)
	if err != nil {
		panic(err)
	}
	if len(hard) == 0 {
		fmt.Println("\nB21 (#P-hard join): no answer (certainly false)")
	} else {
		fmt.Printf("\nB21 (#P-hard join): route=d-tree\n")
		fmt.Printf("  d-tree rel ε=0.01: %.6f  (%v, %d nodes, bounds [%.6f, %.6f])\n",
			hard[0].P, time.Since(t0), hard[0].Res.Nodes, hard[0].Res.Lo, hard[0].Res.Hi)
	}

	// Per-answer confidences of a grouped query (Q15), streamed: the
	// safe route returns every supplier's exact confidence without
	// materializing lineage.
	q15 := sess.Query(db.Query("Q15"))
	explain, err := q15.Explain()
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nQ15 (%s); first 5 supplier confidences:\n", explain)
	n := 0
	for a, err := range sess.Query(db.Query("Q15")).Run(ctx) {
		if err != nil {
			panic(err)
		}
		if n++; n > 5 {
			break
		}
		fmt.Printf("  supplier %-4d conf %.6f\n", a.Vals[0], a.P)
	}
}
