package exp

import (
	"context"
	"fmt"
	"math"
	"os"
	"slices"

	"repro"
	"repro/internal/formula"
	"repro/internal/pdb"
	"repro/internal/plan"
	"repro/internal/tpch"
)

// Default query parameters shared by the TPC-H figures.
const (
	q1Cutoff  = pdb.Value(tpch.MaxDate * 3 / 4)
	b1Cutoff  = pdb.Value(tpch.MaxDate / 2)
	q15Lo     = pdb.Value(0)
	q15Hi     = pdb.Value(tpch.MaxDate / 3)
	b16Brand  = pdb.Value(5)
	b16Size   = pdb.Value(25)
	b17Brand  = pdb.Value(3)
	b17Cont   = pdb.Value(7)
	b2Size    = pdb.Value(15)
	b2Region  = pdb.Value(1)
	b9TypeMax = pdb.Value(10)
	b20Brand  = pdb.Value(3)
	b20Avail  = pdb.Value(50)
	iqPairE   = 60
	iqPairD   = 200
	iqStarE   = 20
	iqStarD   = 40
	iqStarC   = 40
	relErr001 = 0.01
	relErr005 = 0.05
)

// tpchQuery is one workload query as IR: lineageDNFs materializes its
// lineage for the aconf / d-tree columns, and the planner routes the
// same node to the exact structural algorithm for the "SPROUT" column.
type tpchQuery struct {
	name string
	node plan.Node
}

func tractableQueries(db *tpch.DB) []tpchQuery {
	return []tpchQuery{
		{"1", db.Q1IR(q1Cutoff)},
		{"15", db.Q15IR(q15Lo, q15Hi)},
		{"B1", db.B1IR(b1Cutoff)},
		{"B6", db.B6IR(300, 1200, 2, 6, 30)},
		{"B16", db.B16IR(b16Brand, b16Size)},
		{"B17", db.B17IR(b17Brand, b17Cont)},
	}
}

// lineageDNFs materializes a query's lineage with the pipelined
// runtime: one DNF per answer, none when no answer is possible.
func lineageDNFs(node plan.Node) []formula.DNF {
	answers := plan.Lineage(node)
	out := make([]formula.DNF, len(answers))
	for i, a := range answers {
		out[i] = a.Lin
	}
	return out
}

// named returns the query called name.
func named(qs []tpchQuery, name string) plan.Node {
	return qs[slices.IndexFunc(qs, func(q tpchQuery) bool { return q.name == name })].node
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

// RoutingTable is the planner's EXPLAIN over the whole query catalog:
// for each workload query, the paper class, the chosen route and the
// planner's reasoning. The acceptance property — hierarchical → safe,
// IQ → sorted scan, hard → d-tree — is what the routing test asserts.
// The catalog IR is compiled through the DB/Session/Query façade, the
// same path a serving client takes, so the table also smoke-tests the
// façade's build validation over every catalog query.
func RoutingTable(p Params) *Table {
	db := tpch.Generate(tpch.Config{SF: p.SF, ProbHigh: 1, Seed: p.Seed})
	fdb := repro.NewDB(db.Space,
		db.Region, db.Nation, db.Supplier, db.Customer,
		db.Part, db.PartSupp, db.Orders, db.Lineitem)
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
