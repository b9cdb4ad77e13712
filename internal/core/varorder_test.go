package core

import (
	"context"
	"testing"

	"repro/internal/formula"
)

func TestMostFrequentVar(t *testing.T) {
	s := formula.NewSpace()
	x := s.AddBool(0.5)
	y := s.AddBool(0.5)
	z := s.AddBool(0.5)
	d := formula.NewDNF(
		formula.MustClause(formula.Pos(x), formula.Pos(y)),
		formula.MustClause(formula.Pos(x), formula.Pos(z)),
		formula.MustClause(formula.Pos(y)),
	)
	if got := kernelMostFrequentVar(s, d); got != x && got != y {
		t.Fatalf("most frequent = %d, want x(%d) or y(%d)", got, x, y)
	}
	// x and y both occur twice; smallest id wins for determinism.
	if got := kernelMostFrequentVar(s, d); got != x {
		t.Fatalf("tie-break: got %d, want %d", got, x)
	}
}

// iqLineage builds the lineage of q() :- R(X), S(Y), X < Y on sorted
// unary relations: clause (x_i, y_j) for every value pair with i-th
// R-value < j-th S-value (values are just the indices here).
func iqLineage(n, m int) (*formula.Space, formula.DNF, []formula.Var, []formula.Var) {
	s := formula.NewSpace()
	xs := make([]formula.Var, n)
	ys := make([]formula.Var, m)
	for i := range xs {
		xs[i] = s.AddBoolTagged(0.3, 0)
	}
	for j := range ys {
		ys[j] = s.AddBoolTagged(0.4, 1)
	}
	var d formula.DNF
	for i := range xs {
		for j := range ys {
			if i < j { // value(x_i) = i, value(y_j) = j
				d = append(d, formula.MustClause(formula.Pos(xs[i]), formula.Pos(ys[j])))
			}
		}
	}
	return s, d.Normalize(), xs, ys
}

func TestIQVariableChoice(t *testing.T) {
	// Lemma 6.8: for X<Y lineage, x_0 (smallest X-value) occurs in
	// clauses together with every y present in Φ, so it is eligible; the
	// rule must select an eligible variable.
	s, d, xs, ys := iqLineage(4, 4)
	v, ok := kernelIQVar(s, d)
	if !ok {
		t.Fatal("IQ rule found no variable on IQ lineage")
	}
	// Verify eligibility directly: every other-relation variable of d
	// must co-occur with v.
	vtag := s.Tag(v)
	co := map[formula.Var]bool{}
	for _, c := range d {
		if _, in := c.Lookup(v); !in {
			continue
		}
		for _, a := range c {
			co[a.Var] = true
		}
	}
	for _, c := range d {
		for _, a := range c {
			if s.Tag(a.Var) != vtag && !co[a.Var] {
				t.Fatalf("chosen %d does not co-occur with %d", v, a.Var)
			}
		}
	}
	_ = xs
	_ = ys
}

func TestIQVariableRejectsUntagged(t *testing.T) {
	s := formula.NewSpace()
	x := s.AddBool(0.5)
	y := s.AddBoolTagged(0.5, 1)
	d := formula.NewDNF(formula.MustClause(formula.Pos(x), formula.Pos(y)))
	if _, ok := kernelIQVar(s, d); ok {
		t.Fatal("untagged variable must disable the IQ rule")
	}
}

func TestIQVariableRejectsSingleRelation(t *testing.T) {
	s := formula.NewSpace()
	x := s.AddBoolTagged(0.5, 0)
	y := s.AddBoolTagged(0.5, 0)
	d := formula.NewDNF(formula.MustClause(formula.Pos(x), formula.Pos(y)))
	if _, ok := kernelIQVar(s, d); ok {
		t.Fatal("IQ rule needs at least two relations")
	}
}

func TestIQVariableOnHardPattern(t *testing.T) {
	// R(X),S(X,Y),T(Y) grid lineage: no variable co-occurs with all
	// variables of both other relations, so the rule must fail and the
	// compiler falls back to most-frequent.
	s := formula.NewSpace()
	r := []formula.Var{s.AddBoolTagged(0.5, 0), s.AddBoolTagged(0.5, 0)}
	tt := []formula.Var{s.AddBoolTagged(0.5, 2), s.AddBoolTagged(0.5, 2)}
	var d formula.DNF
	for i, rv := range r {
		for j, tv := range tt {
			sv := s.AddBoolTagged(0.5, 1)
			_ = i
			_ = j
			d = append(d, formula.MustClause(formula.Pos(rv), formula.Pos(sv), formula.Pos(tv)))
		}
	}
	// Every r co-occurs with every t and all four s-vars... check via the
	// rule itself; on this complete bipartite pattern r_0 does co-occur
	// with all of S? No: r_0's clauses contain only s-vars from its own
	// row. The rule must reject r_0 but may accept none.
	if v, ok := kernelIQVar(s, d); ok {
		// If a variable is returned it must genuinely satisfy the lemma.
		vtag := s.Tag(v)
		co := map[formula.Var]bool{}
		for _, c := range d {
			if _, in := c.Lookup(v); !in {
				continue
			}
			for _, a := range c {
				co[a.Var] = true
			}
		}
		for _, c := range d {
			for _, a := range c {
				if s.Tag(a.Var) != vtag && !co[a.Var] {
					t.Fatalf("IQ rule returned ineligible variable %d", v)
				}
			}
		}
	}
}

func TestIQLineagePolynomialExact(t *testing.T) {
	// Theorem 6.9: exact d-tree computation on IQ lineage is polynomial.
	// n = m = 40 gives 780 clauses; exhaustive Shannon without the
	// subsumption + IQ order would be astronomically large.
	s, d, xs, ys := iqLineage(40, 40)
	res, err := ExactCtx(context.Background(), s, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Independent verification via the complement scan: P(∃ i<j with
	// x_i and y_j present) computed by conditioning on the first present
	// x (in value order).
	want := iqPairOracle(s, xs, ys)
	if diff := res.Estimate - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("exact %v, oracle %v", res.Estimate, want)
	}
	if res.Nodes > 20*len(d) {
		t.Fatalf("node count %d not polynomial-looking for %d clauses", res.Nodes, len(d))
	}
}

// iqPairOracle computes P(∃ i<j: x_i ∧ y_j) by the linear recurrence
// P_k = p_{x_k}·G(k) + (1−p_{x_k})·P_{k+1}, where G(k) is the or-
// probability of ys with index > k.
func iqPairOracle(s *formula.Space, xs, ys []formula.Var) float64 {
	n := len(xs)
	suffix := make([]float64, len(ys)+1) // suffix[j] = P(∨_{t≥j} y_t)
	q := 1.0
	for j := len(ys) - 1; j >= 0; j-- {
		q *= 1 - s.PTrue(ys[j])
		suffix[j] = 1 - q
	}
	p := 0.0
	for k := n - 1; k >= 0; k-- {
		g := 0.0
		if k+1 < len(ys) {
			g = suffix[k+1]
		}
		p = s.PTrue(xs[k])*g + (1-s.PTrue(xs[k]))*p
	}
	return p
}
