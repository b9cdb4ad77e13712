package exp

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/formula"
	"repro/internal/graphs"
	"repro/internal/tpch"
)

// NodeStats reproduces the paper's d-tree composition statistics
// (Section VII-A): for tractable queries about 90% of d-tree nodes are
// ⊗ nodes, which is why the bound heuristic works so well; hard-query
// trees contain real ⊕ branching. The table reports, per workload, the
// complete d-tree's node-kind composition and, for the approximate run,
// the nodes constructed.
func NodeStats(p Params) *Table {
	p = p.withDefaults()
	db := tpch.Generate(tpch.Config{SF: p.SF, ProbHigh: 1, Seed: p.Seed})
	karate := graphs.Karate(0.3, 0.95, p.Seed)

	t := &Table{
		ID:     "stats",
		Title:  "d-tree composition per workload",
		Header: []string{"workload", "clauses", "tree nodes", "⊗", "⊙", "⊕", "leaves", "approx nodes"},
		Notes: []string{
			"tree columns from exhaustive compilation (budget-capped); approx columns from rel-0.01 runs",
		},
	}
	cases := []struct {
		name string
		dnf  formula.DNF
	}{
		{"tpch-B17 (hierarchical)", booleanDNF(db.B17IR(b17Brand, b17Cont))},
		{"tpch-B16 (hierarchical)", booleanDNF(db.B16IR(b16Brand, b16Size))},
		{"tpch-IQB1 (inequality)", booleanDNF(db.IQB1IR(20, 60))},
		{"tpch-B21 (hard)", booleanDNF(db.B21IR(db.CommonNationKey()))},
		{"karate-triangle", karate.TriangleDNF()},
		{"karate-s2", karate.SeparationDNF(0, 33)},
	}
	for _, c := range cases {
		if len(c.dnf) == 0 {
			continue
		}
		row := []string{c.name, fmt.Sprint(len(c.dnf))}
		tree, err := core.CompileBudget(db.Space, c.dnf, p.DtreeMaxNodes)
		if c.name == "karate-triangle" || c.name == "karate-s2" {
			tree, err = core.CompileBudget(karate.Space(), c.dnf, p.DtreeMaxNodes)
		}
		if err != nil {
			row = append(row, "TO", "-", "-", "-", "-")
		} else {
			row = append(row,
				fmt.Sprint(tree.Size()),
				fmt.Sprint(tree.CountKind(core.IndepOr)),
				fmt.Sprint(tree.CountKind(core.IndepAnd)),
				fmt.Sprint(tree.CountKind(core.ExclOr)),
				fmt.Sprint(tree.CountKind(core.LeafKind)),
			)
		}
		space := db.Space
		if c.name == "karate-triangle" || c.name == "karate-s2" {
			space = karate.Space()
		}
		res, aerr := dtree(relErr001, engine.Relative, p.DtreeMaxNodes).Evaluate(context.Background(), space, c.dnf)
		if aerr != nil {
			row = append(row, "TO")
		} else {
			row = append(row, fmt.Sprint(res.Nodes))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
