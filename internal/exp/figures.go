package exp

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/formula"
	"repro/internal/graphs"
	"repro/internal/pdb"
	"repro/internal/plan"
	"repro/internal/tpch"
)

// figure is one table cmd/experiments prints. A Section VII figure
// has its header and notes, the rows it renders, and how a row's
// measurements become the cells after its labels and clause count; a
// table outside the scenario list (route, topk, obs) is built by table.
type figure struct {
	id, title string
	header    []string
	notes     []string
	cells     func(Row) []string
	rows      func() []Row
	table     func() *Table
}

// figures lists every table in print order.
func figures(p Params) []figure {
	fig6 := []string{"query", "clauses", "aconf(r.01)", "d-tree(r.01)", "d-tree(0)", "SPROUT", "P (exact)"}
	fig6Notes := []string{
		"per-query time = sum over answer tuples of confidence-computation time",
		"TO = budget exhausted before the guarantee was met",
		"SPROUT = planner-routed exact path (safe plan / IQ scan chosen automatically)",
	}
	return []figure{{
		id: "route", table: func() *Table { return routingTable(p) },
	}, {
		id: "topk", table: func() *Table { return topkFigure(p) },
	}, {
		id: "fig6a", title: fmt.Sprintf("tractable TPC-H queries, SF %g, tuple probs in (0,1)", p.SF),
		header: fig6, notes: fig6Notes, cells: timed(2), rows: func() []Row { return tractableRows(p, "fig6a", 1) },
	}, {
		id: "fig6b", title: fmt.Sprintf("tractable TPC-H queries, SF %g, tuple probs in (0,0.01)", p.SF),
		header: fig6, notes: fig6Notes, cells: timed(2), rows: func() []Row { return tractableRows(p, "fig6b", 0.01) },
	}, {
		id: "fig6c", title: fmt.Sprintf("tractable TPC-H queries with inequality joins, SF %g", p.SF),
		header: fig6, cells: timed(3), rows: func() []Row { return fig6cRows(p) },
	}, {
		id: "fig7", title: "hard TPC-H queries (B2, B9, B20, B21) over scale factors",
		header: []string{"query", "SF", "clauses", "aconf(.01)", "aconf(.05)", "d-tree(.01)", "d-tree(.05)", "d-tree est(.01)"},
		cells:  timed(2), rows: func() []Row { return fig7Rows(p) },
	}, {
		id: "fig8", title: "triangle and path2 on random cliques, relative error 0.01",
		header: []string{"query", "nodes", "edge p", "clauses", "aconf", "d-tree", "d-tree est"},
		cells:  timed(1), rows: func() []Row { return fig8Rows(p) },
	}, {
		id: "fig8c", title: "triangle and path2 on random cliques, absolute error 0.05, small edge probabilities",
		header: []string{"query", "nodes", "edge p", "clauses", "d-tree", "nodes built", "d-tree est"},
		cells:  nodesBuilt, rows: func() []Row { return fig8cRows(p) },
	}, {
		id: "fig9", title: "social networks (karate, dolphins): queries t, s2, p2, p3 across relative errors",
		header: []string{"network", "query", "rel err", "clauses", "aconf", "d-tree", "d-tree est"},
		notes:  []string{"dolphins is a synthetic 62-node/159-edge stand-in (see graphs.Dolphins)"},
		cells:  timed(1), rows: func() []Row { return fig9Rows(p) },
	}, {
		id: "stats", title: "d-tree composition per workload",
		header: []string{"workload", "clauses", "tree nodes", "⊗", "⊙", "⊕", "leaves", "approx nodes"},
		notes:  []string{"tree columns from the exact run (budget-capped): fragments of ≤ 6 clauses are inclusion–exclusion leaves, and each ⊕ branch counts its {x = a} leaf; approx columns from rel-0.01 runs"},
		cells:  shape, rows: func() []Row { return statsRows(p) },
	}, {
		id: "obs", table: func() *Table { return obsTable(p) },
	}}
}

// IDs returns the id of every table Figure renders, in print order and
// without the "fig" prefix: "route", "topk", "6a" … "9", "stats", "obs".
func IDs() []string {
	var ids []string
	for _, f := range figures(Params{}) {
		ids = append(ids, strings.TrimPrefix(f.id, "fig"))
	}
	return ids
}

// Scenarios returns the rows of the named figures ("fig6a", "fig6b",
// "fig6c", "fig7", "fig8", "fig8c", "fig9", "stats"), of every figure
// when none is named, in table order. It is the one definition of the
// paper's Section VII instances: Figure renders its tables from it, and
// the root BenchmarkFigures times its cells.
func Scenarios(p Params, figs ...string) []Row {
	var rows []Row
	for _, f := range figures(p) {
		if f.rows != nil && (len(figs) == 0 || slices.Contains(figs, f.id)) {
			rows = append(rows, f.rows()...)
		}
	}
	return rows
}

// Figure renders one table: a figure's from its rows of the scenario
// list, or one of the tables outside it. The id is one of IDs, with or
// without a "fig" prefix; Figure returns nil for an unknown id.
func Figure(id string, p Params) *Table {
	for _, f := range figures(p) {
		if strings.TrimPrefix(f.id, "fig") != strings.TrimPrefix(id, "fig") {
			continue
		}
		if f.table != nil {
			return f.table()
		}
		t := &Table{ID: f.id, Title: f.title, Header: f.header, Notes: f.notes}
		for _, r := range f.rows() {
			row := append(slices.Clone(r.Labels), fmt.Sprint(r.Clauses()))
			t.Rows = append(t.Rows, append(row, f.cells(r)...))
		}
		return t
	}
	return nil
}

// timed renders every column's time, then column est's estimate. A row
// without lineage has no times, and probability 0.
func timed(est int) func(Row) []string {
	return func(r Row) []string {
		n := len(r.Cols)
		if r.Clauses() == 0 {
			return append(slices.Repeat([]string{"-"}, n), "0")
		}
		cells := make([]string, n+1)
		for j := range r.Cols {
			c := r.Run(j)
			cells[j] = c.timeCell()
			if j == est {
				cells[n] = c.estimate(r)
			}
		}
		return cells
	}
}

// nodesBuilt renders the one d-tree column's time, nodes and estimate.
func nodesBuilt(r Row) []string {
	c := r.Run(0)
	return []string{c.timeCell(), fmt.Sprint(c.Work), c.estimate(r)}
}

// shape renders the node-kind composition of the complete d-tree that
// a stats row's d-tree(0) column builds, then the nodes its
// d-tree(r.01) column builds.
func shape(r Row) []string {
	var d formula.DNF
	if len(r.DNFs) > 0 {
		d = r.DNFs[0]
	}
	var cells []string
	tree, sh, err := core.ExactShape(context.Background(), r.Space, d, r.Cols[0].Eval.(engine.Approx))
	if err != nil {
		cells = []string{"TO", "-", "-", "-", "-"}
	} else {
		cells = []string{fmt.Sprint(tree.Nodes), fmt.Sprint(sh[core.IndepOr]), fmt.Sprint(sh[core.IndepAnd]),
			fmt.Sprint(sh[core.ExclOr]), fmt.Sprint(sh[core.LeafKind])}
	}
	if c := r.Run(1); c.Converged {
		return append(cells, fmt.Sprint(c.Work))
	}
	return append(cells, "TO")
}

// fig6Cols are Fig. 6's algorithms: aconf and the d-tree at relative
// error 0.01, the exact d-tree, and the planner-routed exact path.
func (p Params) fig6Cols() []Column {
	return []Column{{"aconf(r.01)", p.aconf(relErr001, p.Seed)}, {"d-tree(r.01)", p.dtree(relErr001, engine.Relative)},
		{"d-tree(0)", p.dtree(0, engine.Absolute)}, {"SPROUT", nil}}
}

func tpchRows(fig string, db *tpch.DB, qs []tpchQuery, cols []Column, labels ...string) []Row {
	rows := make([]Row, len(qs))
	for i, q := range qs {
		rows[i] = Row{Fig: fig, Labels: append([]string{q.name}, labels...), Space: db.Space,
			DNFs: pdb.Lineages(plan.Lineage(q.node)), Node: q.node, Cols: cols}
	}
	return rows
}

// tractableRows is Fig. 6(a) or 6(b): the six tractable queries under
// one tuple-probability regime.
func tractableRows(p Params, fig string, probHigh float64) []Row {
	db := tpch.Generate(tpch.Config{SF: p.SF, ProbHigh: probHigh, Seed: p.Seed})
	return tpchRows(fig, db, tractableQueries(db), p.fig6Cols())
}

// fig6cRows is Fig. 6(c): the three IQ inequality queries.
func fig6cRows(p Params) []Row {
	db := tpch.Generate(tpch.Config{SF: p.SF, ProbHigh: 1, Seed: p.Seed})
	return tpchRows("fig6c", db, []tpchQuery{
		{"IQ B1", db.Query("IQB1")},
		{"IQ B4", db.Query("IQB4")},
		{"IQ 6", db.Query("IQ6")},
	}, p.fig6Cols())
}

// fig7Rows is Fig. 7: the four hard queries over the scale-factor
// sweep, aconf vs d-tree at relative errors 0.01 and 0.05.
func fig7Rows(p Params) []Row {
	cols := []Column{{"aconf(.01)", p.aconf(relErr001, p.Seed)}, {"aconf(.05)", p.aconf(relErr005, p.Seed+1)},
		{"d-tree(.01)", p.dtree(relErr001, engine.Relative)}, {"d-tree(.05)", p.dtree(relErr005, engine.Relative)}}
	var rows []Row
	for _, sf := range p.SFs {
		db := tpch.Generate(tpch.Config{SF: sf, ProbHigh: 1, Seed: p.Seed})
		var qs []tpchQuery
		for _, name := range []string{"B2", "B9", "B20", "B21"} {
			qs = append(qs, tpchQuery{name, db.Query(name)})
		}
		rows = append(rows, tpchRows("fig7", db, qs, cols, fmt.Sprint(sf))...)
	}
	return rows
}

// cliqueRow is one motif query on a random n-clique with edge
// probability ep.
func cliqueRow(fig, query string, n int, ep float64, cols []Column) Row {
	g := graphs.Complete(n, ep)
	d := g.TriangleDNF()
	if query == "path2" {
		d = g.PathDNF(2)
	}
	return Row{Fig: fig, Labels: []string{query, fmt.Sprint(n), fmt.Sprint(ep)}, Space: g.Space(),
		DNFs: []formula.DNF{d}, Cols: cols}
}

// fig8Rows is the top two panels of Fig. 8: triangle and path2 on
// random cliques with edge probabilities 0.3 and 0.7, relative error
// 0.01, aconf vs d-tree.
func fig8Rows(p Params) []Row {
	cols := []Column{{"aconf", p.aconf(relErr001, p.Seed)}, {"d-tree", p.dtree(relErr001, engine.Relative)}}
	var rows []Row
	for _, query := range []string{"triangle", "path2"} {
		for _, n := range p.Cliques {
			for _, ep := range []float64{0.3, 0.7} {
				rows = append(rows, cliqueRow("fig8", query, n, ep, cols))
			}
		}
	}
	return rows
}

// fig8cRows is the bottom panel of Fig. 8: triangle and path2 at
// absolute error 0.05 with small edge probabilities (0.1 and 0.01),
// where the d-tree must work harder to converge.
func fig8cRows(p Params) []Row {
	cols := []Column{{"d-tree", p.dtree(0.05, engine.Absolute)}}
	var rows []Row
	for _, query := range []string{"path2", "triangle"} {
		for _, ep := range []float64{0.1, 0.01} {
			for _, n := range p.SmallPCliques {
				rows = append(rows, cliqueRow("fig8c", query, n, ep, cols))
			}
		}
	}
	return rows
}

// network is one of Fig. 9's social networks.
type network struct {
	name string
	g    *graphs.Graph
}

// networks builds Fig. 9's social networks, karate first: the graphs
// the fig9, stats and topk tables read.
func networks(seed int64) []network {
	return []network{{"karate", graphs.Karate(seed)}, {"dolphins", graphs.Dolphins(seed)}}
}

// socialQueries builds the four Figure 9 queries on a network. The s2
// query separates the network's two hubs.
func socialQueries(g *graphs.Graph) map[string]formula.DNF {
	return map[string]formula.DNF{
		"t":  g.TriangleDNF(),
		"p2": g.PathDNF(2),
		"p3": g.PathDNF(3),
		"s2": g.SeparationDNF(g.Hubs()),
	}
}

// fig9Rows is Fig. 9: the four motif queries on the karate and dolphin
// social networks across the relative-error sweep, aconf vs d-tree.
func fig9Rows(p Params) []Row {
	var rows []Row
	for _, nw := range networks(p.Seed) {
		queries := socialQueries(nw.g)
		for _, qn := range []string{"t", "s2", "p2", "p3"} {
			for _, eps := range p.Errors {
				rows = append(rows, Row{Fig: "fig9", Labels: []string{nw.name, qn, fmt.Sprint(eps)},
					Space: nw.g.Space(), DNFs: []formula.DNF{queries[qn]},
					Cols: []Column{{"aconf", p.aconf(eps, p.Seed)}, {"d-tree", p.dtree(eps, engine.Relative)}}})
			}
		}
	}
	return rows
}

// statsRows is the paper's d-tree composition statistics (Section
// VII-A): for tractable queries about 90% of d-tree nodes are ⊗ nodes,
// which is why the bound heuristic works so well; hard-query trees
// contain real ⊕ branching. Each row's d-tree(0) column builds the
// complete d-tree (core.ExactShape, no memo) and its d-tree(r.01)
// column the approximation's nodes.
func statsRows(p Params) []Row {
	db := tpch.Generate(tpch.Config{SF: p.SF, ProbHigh: 1, Seed: p.Seed})
	karate := networks(p.Seed)[0].g
	social := socialQueries(karate)
	cols := []Column{{"d-tree(0)", p.dtree(0, engine.Absolute)}, {"d-tree(r.01)", p.dtree(relErr001, engine.Relative)}}
	rows := tpchRows("stats", db, []tpchQuery{
		{"tpch-B17 (hierarchical)", db.Query("B17")},
		{"tpch-B16 (hierarchical)", db.Query("B16")},
		// IQB1(20, 60), not the catalog's IQB1(60, 200): the row shows
		// a tree's composition, and at SF 0.002 the smaller pair
		// instance (580 clauses, not 6 354) has the same ⊗/⊕ pattern
		// in a tenth of the nodes (626, not 6 573).
		{"tpch-IQB1 (inequality)", db.IQB1IR(20, 60)},
		{"tpch-B21 (hard)", db.Query("B21")},
	}, cols)
	for _, q := range []struct{ name, query string }{{"karate-triangle", "t"}, {"karate-s2", "s2"}} {
		rows = append(rows, Row{Fig: "stats", Labels: []string{q.name}, Space: karate.Space(),
			DNFs: []formula.DNF{social[q.query]}, Cols: cols})
	}
	return rows
}
