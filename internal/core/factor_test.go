package core

import (
	"math"
	"testing"

	"repro/internal/formula"
)

func TestFactorProductOfDisjunctions(t *testing.T) {
	// Φ = (x∨y) ∧ (u∨v) expanded: {xu, xv, yu, yv} with tags R and S.
	s := formula.NewSpace()
	x := s.AddBoolTagged(0.3, 0)
	y := s.AddBoolTagged(0.4, 0)
	u := s.AddBoolTagged(0.5, 1)
	v := s.AddBoolTagged(0.6, 1)
	d := formula.NewDNF(
		formula.MustClause(formula.Pos(x), formula.Pos(u)),
		formula.MustClause(formula.Pos(x), formula.Pos(v)),
		formula.MustClause(formula.Pos(y), formula.Pos(u)),
		formula.MustClause(formula.Pos(y), formula.Pos(v)),
	)
	parts := kernelParts(s, d)
	if len(parts) != 2 {
		t.Fatalf("got %d parts, want 2", len(parts))
	}
	want := formula.BruteForceProbability(s, d)
	got := 1.0
	for _, p := range parts {
		got *= formula.BruteForceProbability(s, p)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("product of parts %v, want %v", got, want)
	}
}

func TestFactorThreeWay(t *testing.T) {
	// (a∨b) ∧ c ∧ (d∨e) over three relations.
	s := formula.NewSpace()
	a := s.AddBoolTagged(0.2, 0)
	b := s.AddBoolTagged(0.3, 0)
	c := s.AddBoolTagged(0.4, 1)
	d := s.AddBoolTagged(0.5, 2)
	e := s.AddBoolTagged(0.6, 2)
	var dn formula.DNF
	for _, first := range []formula.Var{a, b} {
		for _, last := range []formula.Var{d, e} {
			dn = append(dn, formula.MustClause(formula.Pos(first), formula.Pos(c), formula.Pos(last)))
		}
	}
	parts := kernelParts(s, dn)
	if len(parts) != 3 {
		t.Fatalf("got %d parts, want 3", len(parts))
	}
}

func TestFactorRejectsNonProduct(t *testing.T) {
	// {xu, yv} is not (x∨y) ∧ (u∨v): missing cross terms.
	s := formula.NewSpace()
	x := s.AddBoolTagged(0.3, 0)
	y := s.AddBoolTagged(0.4, 0)
	u := s.AddBoolTagged(0.5, 1)
	v := s.AddBoolTagged(0.6, 1)
	d := formula.NewDNF(
		formula.MustClause(formula.Pos(x), formula.Pos(u)),
		formula.MustClause(formula.Pos(y), formula.Pos(v)),
	)
	if parts := kernelParts(s, d); parts != nil {
		t.Fatalf("non-product DNF factorized: %v", parts)
	}
}

func TestFactorRequiresTags(t *testing.T) {
	s := formula.NewSpace()
	x := s.AddBool(0.3) // untagged
	u := s.AddBoolTagged(0.5, 1)
	d := formula.NewDNF(
		formula.MustClause(formula.Pos(x), formula.Pos(u)),
		formula.MustClause(formula.Pos(x)),
	)
	if parts := kernelParts(s, d); parts != nil {
		t.Fatal("untagged variables must disable factorization")
	}
}

func TestFactorSingleTag(t *testing.T) {
	s := formula.NewSpace()
	x := s.AddBoolTagged(0.3, 0)
	y := s.AddBoolTagged(0.4, 0)
	d := formula.NewDNF(
		formula.MustClause(formula.Pos(x)),
		formula.MustClause(formula.Pos(y)),
	)
	if parts := kernelParts(s, d); parts != nil {
		t.Fatal("single-relation DNF has no ⊙ factorization")
	}
}

func TestFactorWithEmptyProjection(t *testing.T) {
	// Φ = (x ∨ y·u): projecting clause {x} onto tag 1 gives the empty
	// co-clause; the cross-product check must handle it and reject.
	s := formula.NewSpace()
	x := s.AddBoolTagged(0.3, 0)
	y := s.AddBoolTagged(0.4, 0)
	u := s.AddBoolTagged(0.5, 1)
	d := formula.NewDNF(
		formula.MustClause(formula.Pos(x)),
		formula.MustClause(formula.Pos(y), formula.Pos(u)),
	)
	if parts := kernelParts(s, d); parts != nil {
		// If a factorization is claimed it must be probability-preserving.
		got := 1.0
		for _, p := range parts {
			got *= formula.BruteForceProbability(s, p)
		}
		want := formula.BruteForceProbability(s, d)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("factorization not equivalence-preserving: %v vs %v", got, want)
		}
	}
}

func TestFactorPreservesProbabilityRandomized(t *testing.T) {
	// Build genuinely factorizable DNFs as products of random per-tag
	// disjunctions, expand, and verify the factorizer recovers a
	// probability-preserving decomposition.
	for seed := int64(1); seed <= 12; seed++ {
		s := formula.NewSpace()
		groups := make([][]formula.Var, 3)
		for g := range groups {
			n := 1 + int(seed+int64(g))%3
			for i := 0; i < n; i++ {
				groups[g] = append(groups[g], s.AddBoolTagged(0.2+0.1*float64(g+i), int32(g)))
			}
		}
		var d formula.DNF
		var build func(g int, acc formula.Clause)
		build = func(g int, acc formula.Clause) {
			if g == len(groups) {
				d = append(d, acc)
				return
			}
			for _, v := range groups[g] {
				merged, _ := acc.Merge(formula.MustClause(formula.Pos(v)))
				build(g+1, merged)
			}
		}
		build(0, formula.Clause{})
		d = d.Normalize()
		parts := kernelParts(s, d)
		if parts == nil {
			t.Fatalf("seed %d: product DNF did not factorize", seed)
		}
		got := 1.0
		for _, p := range parts {
			got *= formula.BruteForceProbability(s, p)
		}
		want := formula.BruteForceProbability(s, d)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("seed %d: %v vs %v", seed, got, want)
		}
	}
}
