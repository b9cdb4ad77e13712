package exp

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/formula"
	"repro/internal/graphs"
)

// Fig8 reproduces the top two panels of Figure 8: triangle and
// path-of-length-2 queries on random n-cliques with edge probabilities
// 0.3 and 0.7, relative error 0.01, aconf vs d-tree.
func Fig8(p Params, sizes []int) *Table {
	p = p.withDefaults()
	if len(sizes) == 0 {
		sizes = []int{6, 10, 15, 20}
	}
	t := &Table{
		ID:     "fig8",
		Title:  "triangle and path2 on random cliques, relative error 0.01",
		Header: []string{"query", "nodes", "edge p", "clauses", "aconf", "d-tree", "d-tree est"},
	}
	for _, query := range []string{"triangle", "path2"} {
		for _, n := range sizes {
			for _, ep := range []float64{0.3, 0.7} {
				g := graphs.Complete(n, ep)
				var d formula.DNF
				if query == "triangle" {
					d = g.TriangleDNF()
				} else {
					d = g.PathDNF(2)
				}
				ac := runAconf(g.Space(), d, relErr001, p.Delta, p.AconfMaxSample, p.Seed)
				dt := runDtree(g.Space(), d, relErr001, engine.Relative, p.DtreeMaxNodes)
				t.Rows = append(t.Rows, []string{
					query, fmt.Sprint(n), fmt.Sprint(ep), fmt.Sprint(len(d)),
					ac.timeCell(), dt.timeCell(), dt.estimate,
				})
			}
		}
	}
	return t
}

// Fig8c reproduces the bottom panel of Figure 8: triangle and path2 at
// absolute error 0.05 with small edge probabilities (0.1 and 0.01),
// where d-tree must work harder to converge.
func Fig8c(p Params, sizes []int) *Table {
	p = p.withDefaults()
	if len(sizes) == 0 {
		sizes = []int{6, 10, 15}
	}
	t := &Table{
		ID:     "fig8c",
		Title:  "triangle and path2 on random cliques, absolute error 0.05, small edge probabilities",
		Header: []string{"query", "nodes", "edge p", "clauses", "d-tree", "nodes built", "d-tree est"},
	}
	for _, query := range []string{"path2", "triangle"} {
		for _, ep := range []float64{0.1, 0.01} {
			for _, n := range sizes {
				g := graphs.Complete(n, ep)
				var d formula.DNF
				if query == "triangle" {
					d = g.TriangleDNF()
				} else {
					d = g.PathDNF(2)
				}
				dt := runDtree(g.Space(), d, 0.05, engine.Absolute, p.DtreeMaxNodes)
				t.Rows = append(t.Rows, []string{
					query, fmt.Sprint(n), fmt.Sprint(ep), fmt.Sprint(len(d)),
					dt.timeCell(), fmt.Sprint(dt.detail), dt.estimate,
				})
			}
		}
	}
	return t
}

// socialQueries builds the four Figure 9 queries on a network. The s2
// query separates the two highest-degree nodes.
func socialQueries(g *graphs.Graph) map[string]formula.DNF {
	deg := make([]int, g.N)
	for _, e := range g.Edges() {
		deg[e[0]]++
		deg[e[1]]++
	}
	hub1, hub2 := 0, 1
	for i, d := range deg {
		if d > deg[hub1] {
			hub2, hub1 = hub1, i
		} else if i != hub1 && d > deg[hub2] {
			hub2 = i
		}
	}
	return map[string]formula.DNF{
		"t":  g.TriangleDNF(),
		"p2": g.PathDNF(2),
		"p3": g.PathDNF(3),
		"s2": g.SeparationDNF(hub1, hub2),
	}
}

// Fig9 reproduces Figure 9: the four motif queries on the karate and
// dolphin social networks across a sweep of relative errors, aconf vs
// d-tree.
func Fig9(p Params, errors []float64) *Table {
	p = p.withDefaults()
	if len(errors) == 0 {
		errors = []float64{0.05, 0.01, 0.005, 0.001}
	}
	t := &Table{
		ID:     "fig9",
		Title:  "social networks (karate, dolphins): queries t, s2, p2, p3 across relative errors",
		Header: []string{"network", "query", "rel err", "clauses", "aconf", "d-tree", "d-tree est"},
		Notes: []string{
			"dolphins is a synthetic 62-node/159-edge stand-in (see graphs.Dolphins)",
		},
	}
	networks := []struct {
		name string
		g    *graphs.Graph
	}{
		{"karate", graphs.Karate(0.3, 0.95, p.Seed)},
		{"dolphins", graphs.Dolphins(0.5, 0.99, p.Seed)},
	}
	order := []string{"t", "s2", "p2", "p3"}
	for _, nw := range networks {
		queries := socialQueries(nw.g)
		for _, qn := range order {
			d := queries[qn]
			for _, eps := range errors {
				ac := runAconf(nw.g.Space(), d, eps, p.Delta, p.AconfMaxSample, p.Seed)
				dt := runDtree(nw.g.Space(), d, eps, engine.Relative, p.DtreeMaxNodes)
				t.Rows = append(t.Rows, []string{
					nw.name, qn, fmt.Sprint(eps), fmt.Sprint(len(d)),
					ac.timeCell(), dt.timeCell(), dt.estimate,
				})
			}
		}
	}
	return t
}
