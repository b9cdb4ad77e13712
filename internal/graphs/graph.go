// Package graphs implements the random-graph and social-network
// workloads of Section VII-B: probabilistic undirected graphs whose
// edges are independent Boolean random variables, and the four motif
// queries (triangle, path-of-length-2, path-of-length-3, and two-degrees
// separation) whose lineage DNFs drive the experiments of Figures 8
// and 9.
package graphs

import (
	"fmt"
	"math/rand"

	"repro/internal/formula"
)

// Graph is a probabilistic undirected graph: every edge present in the
// edge set is in the graph independently, with its own probability.
// Edges absent from the edge set are missing with certainty.
type Graph struct {
	N     int
	space *formula.Space
	vars  map[[2]int]formula.Var
	edges [][2]int
}

// edgeKey normalizes an undirected edge to (min, max).
func edgeKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// FromEdges builds a graph over nodes 0..n-1 with the given edges and
// per-edge probabilities.
func FromEdges(n int, edges [][2]int, probs []float64) *Graph {
	if len(edges) != len(probs) {
		panic("graphs: edges and probs length mismatch")
	}
	g := &Graph{
		N:     n,
		space: formula.NewSpace(),
		vars:  make(map[[2]int]formula.Var, len(edges)),
	}
	for i, e := range edges {
		k := edgeKey(e[0], e[1])
		if _, dup := g.vars[k]; dup {
			panic(fmt.Sprintf("graphs: duplicate edge %v", k))
		}
		v := g.space.AddBool(probs[i])
		g.space.SetName(v, fmt.Sprintf("e%d_%d", k[0], k[1]))
		g.vars[k] = v
		g.edges = append(g.edges, k)
	}
	return g
}

// Complete builds the n-clique with every edge present with probability
// p — the random-graph model of the experiments, whose possible worlds
// are all subgraphs of the clique.
func Complete(n int, p float64) *Graph {
	var edges [][2]int
	var probs []float64
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, [2]int{u, v})
			probs = append(probs, p)
		}
	}
	return FromEdges(n, edges, probs)
}

// Space returns the probability space holding the edge variables.
func (g *Graph) Space() *formula.Space { return g.space }

// NumEdges returns the number of possible edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edges returns the normalized edge list.
func (g *Graph) Edges() [][2]int { return g.edges }

// EdgeVar returns the Boolean variable of edge (u,v) and whether the
// edge is in the edge set at all.
func (g *Graph) EdgeVar(u, v int) (formula.Var, bool) {
	ev, ok := g.vars[edgeKey(u, v)]
	return ev, ok
}

// neighbors returns, for each node, the adjacent nodes in the edge set.
func (g *Graph) neighbors() [][]int {
	adj := make([][]int, g.N)
	for _, e := range g.edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	return adj
}

// TriangleDNF returns the lineage of the Boolean triangle (3-clique
// motif) query: one clause e_ij ∧ e_jk ∧ e_ik per node triple with all
// three edges possible. On the n-clique this is the three-way self-join
// DNF with C(n,3) clauses and C(n,2) variables from the experiments.
func (g *Graph) TriangleDNF() formula.DNF {
	var d formula.DNF
	for i := 0; i < g.N; i++ {
		for j := i + 1; j < g.N; j++ {
			eij, ok1 := g.EdgeVar(i, j)
			if !ok1 {
				continue
			}
			for k := j + 1; k < g.N; k++ {
				ejk, ok2 := g.EdgeVar(j, k)
				eik, ok3 := g.EdgeVar(i, k)
				if ok2 && ok3 {
					d = append(d, formula.MustClause(
						formula.Pos(eij), formula.Pos(ejk), formula.Pos(eik)))
				}
			}
		}
	}
	return d
}

// NodeTriangleDNF returns the lineage of "node v is in a triangle":
// the TriangleDNF clauses restricted to triangles containing v. The
// per-node DNFs of a graph share edge variables (each triangle feeds
// three of them), making them a naturally overlapping multi-answer
// ranking workload.
func (g *Graph) NodeTriangleDNF(v int) formula.DNF {
	var d formula.DNF
	for i := 0; i < g.N; i++ {
		if i == v {
			continue
		}
		ei, ok := g.EdgeVar(v, i)
		if !ok {
			continue
		}
		for j := i + 1; j < g.N; j++ {
			if j == v {
				continue
			}
			ej, ok1 := g.EdgeVar(v, j)
			eij, ok2 := g.EdgeVar(i, j)
			if ok1 && ok2 {
				d = append(d, formula.MustClause(
					formula.Pos(ei), formula.Pos(ej), formula.Pos(eij)))
			}
		}
	}
	return d.Normalize()
}

// PathDNF returns the lineage of the Boolean "path of length L" query:
// a clause per simple path of L edges (L+1 distinct nodes), counted once
// per undirected path. L must be 2 or 3 (the experiments' p2 and p3).
func (g *Graph) PathDNF(length int) formula.DNF {
	switch length {
	case 2:
		return g.path2()
	case 3:
		return g.path3()
	}
	panic("graphs: PathDNF supports lengths 2 and 3")
}

func (g *Graph) path2() formula.DNF {
	adj := g.neighbors()
	var d formula.DNF
	for mid := 0; mid < g.N; mid++ {
		ns := adj[mid]
		for a := 0; a < len(ns); a++ {
			for b := a + 1; b < len(ns); b++ {
				e1, _ := g.EdgeVar(ns[a], mid)
				e2, _ := g.EdgeVar(mid, ns[b])
				d = append(d, formula.MustClause(formula.Pos(e1), formula.Pos(e2)))
			}
		}
	}
	return d.Normalize()
}

func (g *Graph) path3() formula.DNF {
	adj := g.neighbors()
	var d formula.DNF
	// Paths a–b–c–d with b<c to count each undirected path once.
	for b := 0; b < g.N; b++ {
		for _, c := range adj[b] {
			if c <= b {
				continue
			}
			ebc, _ := g.EdgeVar(b, c)
			for _, a := range adj[b] {
				if a == c {
					continue
				}
				eab, _ := g.EdgeVar(a, b)
				for _, dd := range adj[c] {
					if dd == b || dd == a {
						continue
					}
					ecd, _ := g.EdgeVar(c, dd)
					d = append(d, formula.MustClause(
						formula.Pos(eab), formula.Pos(ebc), formula.Pos(ecd)))
				}
			}
		}
	}
	return d.Normalize()
}

// SeparationDNF returns the lineage of the s2 query: nodes s and t are
// within two degrees of separation — either the direct edge is present
// or some two-edge path s–k–t exists.
func (g *Graph) SeparationDNF(s, t int) formula.DNF {
	var d formula.DNF
	if e, ok := g.EdgeVar(s, t); ok {
		d = append(d, formula.MustClause(formula.Pos(e)))
	}
	for k := 0; k < g.N; k++ {
		if k == s || k == t {
			continue
		}
		e1, ok1 := g.EdgeVar(s, k)
		e2, ok2 := g.EdgeVar(k, t)
		if ok1 && ok2 {
			d = append(d, formula.MustClause(formula.Pos(e1), formula.Pos(e2)))
		}
	}
	return d.Normalize()
}

// Hubs returns the graph's two highest-degree nodes, hub1 of the
// higher degree, ties going to the smaller node. Fig. 9's s2 query is
// the separation of the hubs: g.SeparationDNF(g.Hubs()).
func (g *Graph) Hubs() (hub1, hub2 int) {
	deg := make([]int, g.N)
	for _, e := range g.edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	hub1, hub2 = 0, 1
	for i, d := range deg {
		if d > deg[hub1] {
			hub2, hub1 = hub1, i
		} else if i != hub1 && d > deg[hub2] {
			hub2 = i
		}
	}
	return hub1, hub2
}

// assignProbs draws a deterministic per-edge probability in [lo, hi).
func assignProbs(n int, lo, hi float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	probs := make([]float64, n)
	for i := range probs {
		probs[i] = lo + (hi-lo)*rng.Float64()
	}
	return probs
}
