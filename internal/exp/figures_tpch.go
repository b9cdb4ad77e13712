package exp

import (
	"context"
	"fmt"
	"math"
	"os"

	"repro"
	"repro/internal/engine"
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

// booleanDNF is lineageDNFs for a Boolean query: the lineage of its one
// answer, nil when the answer is certainly false.
func booleanDNF(node plan.Node) formula.DNF {
	if dnfs := lineageDNFs(node); len(dnfs) > 0 {
		return dnfs[0]
	}
	return nil
}

// plannerExact returns the planner-routed exact computation of a
// query's total answer confidence: compile, route (safe plan or IQ
// scan), evaluate. Planning time is deliberately inside the closure —
// the figure measures the routed system end to end. A routed-path
// failure renders as NaN in the table and is logged with the query
// name (the hand-written sprout closures this replaces could not fail).
func plannerExact(s *formula.Space, name string, node plan.Node) func() float64 {
	return func() float64 {
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
}

// fig6Tractable runs Figure 6(a) or 6(b): the six tractable queries
// under one tuple-probability regime, timed under four algorithms.
func fig6Tractable(id string, probHigh float64, p Params) *Table {
	p = p.withDefaults()
	db := tpch.Generate(tpch.Config{SF: p.SF, ProbHigh: probHigh, Seed: p.Seed})
	t := &Table{
		ID: id,
		Title: fmt.Sprintf("tractable TPC-H queries, SF %g, tuple probs in (0,%g)",
			p.SF, probHigh),
		Header: []string{"query", "clauses", "aconf(r.01)", "d-tree(r.01)", "d-tree(0)", "SPROUT", "P (exact)"},
		Notes: []string{
			"per-query time = sum over answer tuples of confidence-computation time",
			"TO = budget exhausted before the guarantee was met",
			"SPROUT = planner-routed exact path (safe plan / IQ scan chosen automatically)",
		},
	}
	for _, q := range tractableQueries(db) {
		clauses := 0
		var ac, dt, de []runResult
		dnfs := lineageDNFs(q.node)
		for i, d := range dnfs {
			clauses += len(d)
			if len(d) == 0 {
				continue
			}
			ac = append(ac, runAconf(db.Space, d, relErr001, p.Delta, p.AconfMaxSample, p.Seed+int64(i)))
			dt = append(dt, runDtree(db.Space, d, relErr001, engine.Relative, p.DtreeMaxNodes))
			de = append(de, runDtree(db.Space, d, 0, engine.Absolute, p.DtreeMaxNodes))
		}
		sp := runMeasured(plannerExact(db.Space, q.name, q.node))
		sa, sd, se := sumRuns(ac), sumRuns(dt), sumRuns(de)
		exact := "-"
		if len(dnfs) == 1 {
			exact = se.estimate
		}
		t.Rows = append(t.Rows, []string{
			q.name, fmt.Sprint(clauses),
			sa.timeCell(), sd.timeCell(), se.timeCell(), sp.timeCell(), exact,
		})
	}
	return t
}

// Fig6a reproduces Figure 6(a): tractable queries, probabilities (0,1).
func Fig6a(p Params) *Table { return fig6Tractable("fig6a", 1.0, p) }

// Fig6b reproduces Figure 6(b): tractable queries, probabilities (0,0.01).
func Fig6b(p Params) *Table { return fig6Tractable("fig6b", 0.01, p) }

// Fig6c reproduces Figure 6(c): the three IQ inequality queries under
// aconf, d-tree(rel 0.01), d-tree(0) and the SPROUT inequality scans.
func Fig6c(p Params) *Table {
	p = p.withDefaults()
	db := tpch.Generate(tpch.Config{SF: p.SF, ProbHigh: 1, Seed: p.Seed})
	queries := []tpchQuery{
		{"IQ B1", db.IQB1IR(iqPairE, iqPairD)},
		{"IQ B4", db.IQB4IR(iqStarE, iqStarD, iqStarC)},
		{"IQ 6", db.IQ6IR(iqStarE, iqStarD, iqStarC)},
	}
	t := &Table{
		ID:     "fig6c",
		Title:  fmt.Sprintf("tractable TPC-H queries with inequality joins, SF %g", p.SF),
		Header: []string{"query", "clauses", "aconf(r.01)", "d-tree(r.01)", "d-tree(0)", "SPROUT", "P (exact)"},
	}
	for _, q := range queries {
		dnf := booleanDNF(q.node)
		if len(dnf) == 0 {
			t.Rows = append(t.Rows, []string{q.name, "0", "-", "-", "-", "-", "0"})
			continue
		}
		ac := runAconf(db.Space, dnf, relErr001, p.Delta, p.AconfMaxSample, p.Seed)
		dt := runDtree(db.Space, dnf, relErr001, engine.Relative, p.DtreeMaxNodes)
		de := runDtree(db.Space, dnf, 0, engine.Absolute, p.DtreeMaxNodes)
		sp := runMeasured(plannerExact(db.Space, q.name, q.node))
		t.Rows = append(t.Rows, []string{
			q.name, fmt.Sprint(len(dnf)),
			ac.timeCell(), dt.timeCell(), de.timeCell(), sp.timeCell(), sp.estimate,
		})
	}
	return t
}

// RoutingTable is the planner's EXPLAIN over the whole query catalog:
// for each workload query, the paper class, the chosen route and the
// planner's reasoning. The acceptance property — hierarchical → safe,
// IQ → sorted scan, hard → d-tree — is what the routing test asserts.
// The catalog IR is compiled through the DB/Session/Query façade, the
// same path a serving client takes, so the table also smoke-tests the
// façade's build validation over every catalog query.
func RoutingTable(p Params) *Table {
	p = p.withDefaults()
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

// Fig7 reproduces Figure 7: the four hard queries over a scale-factor
// sweep, aconf vs d-tree at relative errors 0.01 and 0.05.
func Fig7(p Params, sfs []float64) *Table {
	p = p.withDefaults()
	if len(sfs) == 0 {
		sfs = []float64{0.0005, 0.001, 0.002, 0.005}
	}
	t := &Table{
		ID:     "fig7",
		Title:  "hard TPC-H queries (B2, B9, B20, B21) over scale factors",
		Header: []string{"query", "SF", "clauses", "aconf(.01)", "aconf(.05)", "d-tree(.01)", "d-tree(.05)", "d-tree est(.01)"},
	}
	for _, sf := range sfs {
		pp := p
		pp.SF = sf
		db := tpch.Generate(tpch.Config{SF: sf, ProbHigh: 1, Seed: p.Seed})
		nat := db.CommonNationKey()
		queries := []tpchQuery{
			{"B2", db.B2IR(b2Size, b2Region)},
			{"B9", db.B9IR(b9TypeMax)},
			{"B20", db.B20IR(nat, b20Brand, b20Avail)},
			{"B21", db.B21IR(nat)},
		}
		for _, q := range queries {
			dnf := booleanDNF(q.node)
			if len(dnf) == 0 {
				t.Rows = append(t.Rows, []string{q.name, fmt.Sprint(sf), "0", "-", "-", "-", "-", "0"})
				continue
			}
			a1 := runAconf(db.Space, dnf, relErr001, p.Delta, p.AconfMaxSample, p.Seed)
			a5 := runAconf(db.Space, dnf, relErr005, p.Delta, p.AconfMaxSample, p.Seed+1)
			d1 := runDtree(db.Space, dnf, relErr001, engine.Relative, p.DtreeMaxNodes)
			d5 := runDtree(db.Space, dnf, relErr005, engine.Relative, p.DtreeMaxNodes)
			t.Rows = append(t.Rows, []string{
				q.name, fmt.Sprint(sf), fmt.Sprint(len(dnf)),
				a1.timeCell(), a5.timeCell(), d1.timeCell(), d5.timeCell(), d1.estimate,
			})
		}
	}
	return t
}
