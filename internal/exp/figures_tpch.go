package exp

import (
	"context"
	"fmt"
	"math"
	"os"

	"repro"
	"repro/internal/formula"
	"repro/internal/plan"
	"repro/internal/tpch"
)

// The relative errors of the figures' fixed-error columns.
const (
	relErr001 = 0.01
	relErr005 = 0.05
)

// tpchQuery is one workload query as IR under its table label: the
// row's lineage feeds the aconf / d-tree columns, and the planner
// routes the same node to the exact structural algorithm for the
// "SPROUT" column.
type tpchQuery struct {
	name string
	node plan.Node
}

// tractableQueries is Fig. 6(a)/(b)'s six hierarchical catalog queries.
func tractableQueries(db *tpch.DB) []tpchQuery {
	return []tpchQuery{
		{"1", db.Query("Q1")},
		{"15", db.Query("Q15")},
		{"B1", db.Query("B1")},
		{"B6", db.Query("B6")},
		{"B16", db.Query("B16")},
		{"B17", db.Query("B17")},
	}
}

// plannerExact is the planner-routed exact computation of a query's
// total answer confidence: compile, route (safe plan or IQ scan),
// evaluate. Planning is part of the measured run: the figure measures
// the routed system end to end. A routed-path failure renders as NaN
// in the table and is logged with the query name.
func plannerExact(s *formula.Space, name string, node plan.Node) float64 {
	p := plan.Compile(node)
	answers, err := p.Answers(context.Background(), s, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "exp: planner-routed %s failed (%s): %v\n", name, p.Explain(), err)
		return math.NaN()
	}
	sum := 0.0
	for _, a := range answers {
		sum += a.P
	}
	return sum
}

// routingTable is the planner's EXPLAIN over the whole query catalog:
// for each workload query, the paper class, the chosen route and the
// planner's reasoning. The acceptance property — hierarchical → safe,
// IQ → sorted scan, hard → d-tree — is what the routing test asserts.
// The catalog IR is compiled through the DB/Session/Query façade, the
// same path a serving client takes, so the table also smoke-tests the
// façade's build validation over every catalog query.
func routingTable(p Params) *Table {
	db := tpch.Generate(tpch.Config{SF: p.SF, ProbHigh: 1, Seed: p.Seed})
	fdb := repro.NewDB(db.Space, db.Relations()...)
	sess := fdb.Session()
	t := &Table{
		ID:     "route",
		Title:  fmt.Sprintf("planner routing over the TPC-H catalog, SF %g", p.SF),
		Header: []string{"query", "class", "route", "why"},
	}
	for _, entry := range db.Catalog() {
		pr, err := sess.Query(entry.Node).Build()
		if err != nil {
			t.Rows = append(t.Rows, []string{entry.Name, string(entry.Class), "ERR", err.Error()})
			continue
		}
		pl := pr.Plan()
		t.Rows = append(t.Rows, []string{
			entry.Name, string(entry.Class), pl.Route.String(), pl.Why,
		})
	}
	return t
}
