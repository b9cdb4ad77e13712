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
// node-kind composition of the complete d-tree the exact run builds
// (core.ExactShape, no memo) and, for the approximate run, the nodes
// constructed.
func NodeStats(p Params) *Table {
	p = p.withDefaults()
	db := tpch.Generate(tpch.Config{SF: p.SF, ProbHigh: 1, Seed: p.Seed})
	karate := graphs.Karate(0.3, 0.95, p.Seed)

	t := &Table{
		ID:     "stats",
		Title:  "d-tree composition per workload",
		Header: []string{"workload", "clauses", "tree nodes", "⊗", "⊙", "⊕", "leaves", "approx nodes"},
		Notes: []string{
			"tree columns from the exact run (budget-capped): fragments of ≤ 6 clauses are inclusion–exclusion leaves, and each ⊕ branch counts its {x = a} leaf; approx columns from rel-0.01 runs",
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
		space := db.Space
		if c.name == "karate-triangle" || c.name == "karate-s2" {
			space = karate.Space()
		}
		tree, sh, err := core.ExactShape(context.Background(), space, c.dnf, core.Options{MaxNodes: p.DtreeMaxNodes})
		if err != nil {
			row = append(row, "TO", "-", "-", "-", "-")
		} else {
			row = append(row,
				fmt.Sprint(tree.Nodes),
				fmt.Sprint(sh[core.IndepOr]),
				fmt.Sprint(sh[core.IndepAnd]),
				fmt.Sprint(sh[core.ExclOr]),
				fmt.Sprint(sh[core.LeafKind]),
			)
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
