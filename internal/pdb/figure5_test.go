package pdb

import (
	"math"
	"testing"

	"repro/internal/formula"
)

// figure5 builds the social network of Figure 5(a): a tuple-independent
// edge relation E(U,V) with edges e1..e6 and the paper's probabilities.
// The graph is undirected; as in the paper, E stores each edge once with
// U < V and queries account for symmetry.
func figure5(s *formula.Space) (*Relation, []formula.Var) {
	rows := [][]Value{
		{5, 7}, {5, 11}, {6, 7}, {6, 11}, {6, 17}, {7, 17},
	}
	probs := []float64{0.9, 0.8, 0.1, 0.9, 0.5, 0.2}
	e := NewTupleIndependent(s, "E", []string{"u", "v"}, rows, probs, 0)
	vars := make([]formula.Var, len(e.Tups))
	for i, t := range e.Tups {
		vars[i] = t.Lin[0].Var
	}
	return e, vars
}

// TestFigure5Triangle evaluates the triangle query of Section VI-A:
//
//	select conf() from E n1, E n2, E n3
//	where n1.v = n2.u and n2.v = n3.v and n1.u = n3.u
//	  and n1.u < n2.u and n2.u < n3.v
//
// and checks the answer lineage is e3 ∧ e5 ∧ e6 (Figure 5(c)).
func TestFigure5Triangle(t *testing.T) {
	s := formula.NewSpace()
	e, vars := figure5(s)

	n1 := Rename(e, "n1", []string{"u", "v"})
	n2 := Rename(e, "n2", []string{"u", "v"})
	n3 := Rename(e, "n3", []string{"u", "v"})

	// n1.v = n2.u
	j12 := EquiJoin(n1, n2, 1, 0)
	// then n2.v = n3.v and n1.u = n3.u, with the ordering predicates.
	j := ThetaJoin(j12, n3, func(lv, rv []Value) bool {
		n1u, n2u, n2v := lv[0], lv[2], lv[3]
		n3u, n3v := rv[0], rv[1]
		return n2v == n3v && n1u == n3u && n1u < n2u && n2u < n3v
	})
	lin, any := BooleanAnswer(j)
	if !any {
		t.Fatal("triangle query returned no tuples")
	}
	want := formula.NewDNF(formula.MustClause(
		formula.Pos(vars[2]), formula.Pos(vars[4]), formula.Pos(vars[5])))
	if len(lin) != 1 || !lin[0].Equal(want[0]) {
		t.Fatalf("lineage %s, want e3∧e5∧e6", lin.String(s))
	}

	// The world {e1,e2,e3} of Section VI-A has the stated probability
	// .9·.8·.1·(1−.9)·(1−.5)·(1−.2).
	worldP := 0.9 * 0.8 * 0.1 * (1 - 0.9) * (1 - 0.5) * (1 - 0.2)
	if math.Abs(worldP-0.00288) > 1e-12 {
		t.Fatalf("world probability %v", worldP)
	}

	// Confidence: P(e3∧e5∧e6) = .1·.5·.2 = 0.01.
	got := exactP(s, lin)
	if math.Abs(got-0.01) > 1e-12 {
		t.Fatalf("triangle confidence %v, want 0.01", got)
	}
}

// TestFigure5TwoDegrees evaluates the query for nodes within two but not
// one degrees of separation from node 7, over the BID representation
// E′ of Figure 5(b), and checks the lineages of Figure 5(d).
func TestFigure5TwoDegrees(t *testing.T) {
	s := formula.NewSpace()
	edges := [][]Value{{5, 7}, {5, 11}, {6, 7}, {6, 11}, {6, 17}, {7, 17}}
	probs := []float64{0.9, 0.8, 0.1, 0.9, 0.5, 0.2}
	blocks := make([][]BIDAlternative, len(edges))
	for i, e := range edges {
		blocks[i] = []BIDAlternative{
			{Vals: []Value{e[0], e[1], 1}, Prob: probs[i]},
			{Vals: []Value{e[0], e[1], 0}, Prob: 1 - probs[i]},
		}
	}
	ep := NewBID(s, "E'", []string{"u", "v", "in"}, blocks, 0)
	present := Select(ep, func(v []Value) bool { return v[2] == 1 })
	absent := Select(ep, func(v []Value) bool { return v[2] == 0 })

	// Undirected adjacency as a derived view.
	undirected := func(r *Relation) *Relation {
		out := &Relation{Name: r.Name + "_sym", Cols: []string{"a", "b"}}
		for _, t := range r.Tups {
			out.Tups = append(out.Tups,
				Tuple{Vals: []Value{t.Vals[0], t.Vals[1]}, Lin: t.Lin},
				Tuple{Vals: []Value{t.Vals[1], t.Vals[0]}, Lin: t.Lin})
		}
		return out
	}
	adj := undirected(present)
	nadj := undirected(absent)

	// Two-step paths from node 7: 7–m–x with x ≠ 7.
	from7 := Select(adj, func(v []Value) bool { return v[0] == 7 })
	two := EquiJoin(from7, adj, 1, 0)
	two = Select(two, func(v []Value) bool { return v[3] != 7 && v[3] != v[0+1] })

	// "Not one degree": join with the certainly-or-probabilistically
	// absent edge to 7. Edges not in E′ at all are missing with
	// certainty, so x qualifies outright if (7,x) is not a block of E′.
	inNetwork := map[Value]bool{}
	for _, e := range edges {
		if e[0] == 7 {
			inNetwork[e[1]] = true
		}
		if e[1] == 7 {
			inNetwork[e[0]] = true
		}
	}
	var result *Relation
	withAbsent := EquiJoin(two, nadj, 3, 1) // nadj rows (a=x? no: (a,b) with b=7)
	withAbsent = Select(withAbsent, func(v []Value) bool { return v[4] == 7 })
	result = &Relation{Name: "res", Cols: []string{"v"}}
	for _, t := range withAbsent.Tups {
		result.Tups = append(result.Tups, Tuple{Vals: []Value{t.Vals[3]}, Lin: t.Lin})
	}
	for _, t := range two.Tups {
		if !inNetwork[t.Vals[3]] {
			result.Tups = append(result.Tups, Tuple{Vals: []Value{t.Vals[3]}, Lin: t.Lin})
		}
	}
	answers := GroupProject(result, []int{0})

	if len(answers) != 3 {
		t.Fatalf("got %d answers, want 3 (nodes 6, 11, 17)", len(answers))
	}
	wantVals := []Value{6, 11, 17}
	for i, a := range answers {
		if a.Vals[0] != wantVals[i] {
			t.Fatalf("answer %d is node %d, want %d", i, a.Vals[0], wantVals[i])
		}
	}

	// Figure 5(d) lineage probabilities. With P(ei) as given:
	// node 6:  e5∧e6∧¬e3       = .5·.2·.9           = 0.09
	// node 11: e1∧e2 ∨ e3∧e4   = 1−(1−.72)(1−.09)   = 0.7452
	// node 17: e3∧e5∧¬e6       = .1·.5·.8           = 0.04
	wantP := []float64{0.09, 0.7452, 0.04}
	for i, a := range answers {
		got := exactP(s, a.Lin)
		if math.Abs(got-wantP[i]) > 1e-12 {
			t.Fatalf("node %d: confidence %v, want %v (lineage %s)",
				a.Vals[0], got, wantP[i], a.Lin.String(s))
		}
	}
}
