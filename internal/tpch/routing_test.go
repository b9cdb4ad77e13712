package tpch

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
)

// TestPlannerRoutingTPCH is the routing acceptance test: the planner
// must send every hierarchical query to a safe plan, every IQ query to
// a sorted scan, and every hard query to the lineage + d-tree path —
// with no per-query hints beyond the declared IR.
func TestPlannerRoutingTPCH(t *testing.T) {
	db := Generate(Config{SF: 0.0008, ProbHigh: 1, Seed: 11})
	wantRoute := map[Class]plan.Route{
		ClassHierarchical: plan.RouteSafe,
		ClassIQ:           plan.RouteIQ,
		ClassHard:         plan.RouteLineage,
	}
	seen := map[plan.Route]int{}
	for _, entry := range db.Catalog() {
		p := plan.Compile(entry.Node)
		if p.Route != wantRoute[entry.Class] {
			t.Errorf("%s (%s): routed %v, want %v — %s",
				entry.Name, entry.Class, p.Route, wantRoute[entry.Class], p.Why)
		}
		seen[p.Route]++
		t.Logf("%-5s %-13s %s", entry.Name, entry.Class, p.Explain())
	}
	if seen[plan.RouteSafe] == 0 || seen[plan.RouteIQ] == 0 || seen[plan.RouteLineage] == 0 {
		t.Fatalf("catalog did not cover all three routes: %v", seen)
	}
}

// TestRoutedMatchesForcedLineage cross-checks the safe and IQ routes,
// which never build lineage, against exact d-tree evaluation of the
// same queries' forced lineage, which shares no code with them: the
// same answers, keys and order, confidences within 1e-12. The rows
// cover the nine tractable queries at three scales and both tuple
// probability regimes; every row has answers.
func TestRoutedMatchesForcedLineage(t *testing.T) {
	tiny := Generate(Config{SF: 0.0004, ProbHigh: 1, Seed: 1})
	mid := Generate(Config{SF: 0.0008, ProbHigh: 1, Seed: 11})
	small := Generate(Config{SF: 0.0008, ProbHigh: 0.01, Seed: 11})
	wide := Generate(Config{SF: 0.002, ProbHigh: 1, Seed: 4})
	type row struct {
		name  string
		db    *DB
		node  func(*DB) plan.Node
		route plan.Route
	}
	var rows []row
	for _, c := range []struct {
		label string
		db    *DB
	}{{"sf0.0004", tiny}, {"sf0.0008", mid}, {"sf0.0008p0.01", small}} {
		rows = append(rows,
			row{"Q1@" + c.label, c.db, func(db *DB) plan.Node { return db.Q1IR(MaxDate * 3 / 4) }, plan.RouteSafe},
			row{"B1@" + c.label, c.db, func(db *DB) plan.Node { return db.B1IR(MaxDate / 2) }, plan.RouteSafe},
			row{"B6@" + c.label, c.db, func(db *DB) plan.Node { return db.B6IR(300, 1200, 2, 6, 30) }, plan.RouteSafe},
			row{"Q15@" + c.label, c.db, func(db *DB) plan.Node { return db.Q15IR(0, MaxDate/3) }, plan.RouteSafe},
			row{"B16@" + c.label, c.db, func(db *DB) plan.Node { return db.B16IR(5, 20) }, plan.RouteSafe},
			row{"IQB1@" + c.label, c.db, func(db *DB) plan.Node { return db.IQB1IR(12, 30) }, plan.RouteIQ},
			row{"IQB4@" + c.label, c.db, func(db *DB) plan.Node { return db.IQB4IR(8, 12, 12) }, plan.RouteIQ},
			row{"IQ6@" + c.label, c.db, func(db *DB) plan.Node { return db.IQ6IR(8, 12, 12) }, plan.RouteIQ},
		)
	}
	// B17(3, 7) is empty at all three scales; these parameters are not.
	rows = append(rows,
		row{"B17@sf0.0008", mid, func(db *DB) plan.Node { return db.B17IR(1, 8) }, plan.RouteSafe},
		row{"B17@sf0.0008p0.01", small, func(db *DB) plan.Node { return db.B17IR(1, 8) }, plan.RouteSafe},
		row{"B17@sf0.002", wide, func(db *DB) plan.Node { return db.B17IR(0, 0) }, plan.RouteSafe},
	)
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			checkRoutedAgainstLineage(t, r.db, r.node(r.db), r.route, core.Options{}, 1e-12)
		})
	}
	// B1 at ε 1e-6 absolute: the d-tree's ε guarantee, not exactness.
	t.Run("B1@sf0.0004eps1e-6", func(t *testing.T) {
		checkRoutedAgainstLineage(t, tiny, tiny.B1IR(MaxDate/2), plan.RouteSafe,
			core.Options{Eps: 1e-6, Kind: core.Absolute}, 1e-6)
	})
}

// checkRoutedAgainstLineage asserts that node compiles to route and
// that its routed answers match the forced-lineage answers under ev:
// the same keys in the same order, confidences within tol.
func checkRoutedAgainstLineage(t *testing.T, db *DB, node plan.Node, route plan.Route, ev core.Options, tol float64) {
	t.Helper()
	ctx := context.Background()
	p := plan.Compile(node)
	if p.Route != route {
		t.Fatalf("routed %v, want %v: %s", p.Route, route, p.Why)
	}
	got, err := p.Answers(ctx, db.Space, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.CompileWith(node, plan.Options{DisableSafe: true, DisableIQ: true}).Answers(ctx, db.Space, ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("no answers: the row checks nothing")
	}
	if len(got) != len(want) {
		t.Fatalf("%d routed answers, %d forced-lineage answers", len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i].Vals, want[i].Vals) {
			t.Fatalf("answer %d: routed key %v, forced-lineage key %v", i, got[i].Vals, want[i].Vals)
		}
		if d := math.Abs(got[i].P - want[i].P); !(d <= tol) {
			t.Fatalf("answer %v: routed %v, forced lineage %v (|Δ| %.3g > %g)", got[i].Vals, got[i].P, want[i].P, d, tol)
		}
	}
}
