package repro_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graphs"
	"repro/internal/mc"
	"repro/internal/obdd"
	"repro/internal/pdb"
	"repro/internal/plan"
	"repro/internal/tpch"
)

// TestEndToEndTPCH drives the full stack: generate a probabilistic
// database, materialize a query's answer lineage through the plan
// runtime, compute per-answer confidence with the conf() operator
// backed by the d-tree algorithm, and cross-check it and the planner's
// safe route against exact evaluation of the forced lineage.
func TestEndToEndTPCH(t *testing.T) {
	db := tpch.Generate(tpch.Config{SF: 0.0006, ProbHigh: 1, Seed: 3})

	// q(s_suppkey) :- Supplier(s_suppkey, …), Lineitem(…, l_suppkey, …),
	// s_suppkey = l_suppkey, l_shipdate < MaxDate/3.
	suppkey := db.Supplier.MustCol("s_suppkey")
	shipdate := db.Lineitem.MustCol("l_shipdate")
	root := &plan.GroupLineage{
		Input: &plan.EquiJoin{
			Left: &plan.Scan{Rel: db.Supplier},
			Right: &plan.Select{
				Input: &plan.Scan{Rel: db.Lineitem},
				Pred:  func(v []pdb.Value) bool { return v[shipdate] < tpch.MaxDate/3 },
			},
			LeftCol: suppkey, RightCol: db.Lineitem.MustCol("l_suppkey"),
		},
		Cols: []int{suppkey},
	}
	answers := plan.Lineage(root)
	if len(answers) == 0 {
		t.Skip("no answers at this scale")
	}

	confs, err := pdb.ConfWith(context.Background(), db.Space, answers,
		engine.Approx{Eps: 0.0001, Kind: engine.Absolute}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The reference: exact d-tree evaluation of the forced lineage.
	exact, err := plan.CompileWith(root, plan.Options{DisableSafe: true, DisableIQ: true}).
		Answers(context.Background(), db.Space, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[pdb.Value]float64{}
	for _, a := range exact {
		byKey[a.Vals[0]] = a.P
	}
	for _, c := range confs {
		want, ok := byKey[c.Vals[0]]
		if !ok {
			t.Fatalf("supplier %d missing from the exact answers", c.Vals[0])
		}
		if math.Abs(c.P-want) > 0.0001+1e-9 {
			t.Fatalf("supplier %d: conf %v vs exact %v", c.Vals[0], c.P, want)
		}
	}

	// The same query through the planner: the structured equality join
	// routes it to an exact safe plan — no lineage, no evaluator — with
	// identical answers.
	routed := plan.Compile(root)
	if routed.Route != plan.RouteSafe {
		t.Fatalf("planner chose %v (%s), want safe", routed.Route, routed.Why)
	}
	planned, err := routed.Answers(context.Background(), db.Space, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(planned) != len(answers) {
		t.Fatalf("planner %d answers, lineage %d", len(planned), len(answers))
	}
	for _, a := range planned {
		want, ok := byKey[a.Vals[0]]
		if !ok {
			t.Fatalf("supplier %d missing from the exact answers", a.Vals[0])
		}
		if math.Abs(a.P-want) > 1e-12 {
			t.Fatalf("supplier %d: planner %v vs exact %v", a.Vals[0], a.P, want)
		}
	}
}

// TestFourAlgorithmsAgree runs the four probability-computation engines
// of the repository (d-tree approximate, d-tree exact, OBDD, Karp-Luby)
// on one realistic lineage and checks they agree.
func TestFourAlgorithmsAgree(t *testing.T) {
	g := graphs.Karate(5)
	s := g.Space()
	d := g.TriangleDNF()

	ctx := context.Background()
	ex, err := core.ExactCtx(ctx, s, d, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact := ex.Estimate
	approx, err := core.ApproxCtx(ctx, s, d, core.Options{Eps: 0.001, Kind: core.Absolute})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(approx.Estimate-exact) > 0.001+1e-9 {
		t.Fatalf("approx %v vs exact %v", approx.Estimate, exact)
	}

	bdd, err := obdd.Build(s, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bdd.Probability()-exact) > 1e-9 {
		t.Fatalf("obdd %v vs exact %v", bdd.Probability(), exact)
	}

	res, err := mc.AConfCtx(ctx, s, d, mc.AConfOptions{Eps: 0.02, Delta: 0.01, Seed: 17})
	if err != nil || !res.Converged {
		t.Fatalf("aconf did not converge in %d samples", res.Samples)
	}
	if math.Abs(res.Estimate-exact) > 0.04*exact+1e-9 {
		t.Fatalf("aconf %v vs exact %v", res.Estimate, exact)
	}
}
