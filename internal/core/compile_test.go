package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/formula"
	"repro/internal/randdnf"
)

// exactShape runs exact evaluation on d and checks what every complete
// exact run must show: a converged point, no open leaf left, and a
// Shape whose kinds sum to the Result's nodes.
func exactShape(t testing.TB, s *formula.Space, d formula.DNF) (Result, Shape) {
	t.Helper()
	res, sh, err := ExactShape(context.Background(), s, d, Options{})
	if err != nil || !res.Converged || !res.Exact || res.EarlyStop {
		t.Fatalf("exact run: %+v (%v)", res, err)
	}
	if sum := sh[LeafKind] + sh[IndepOr] + sh[IndepAnd] + sh[ExclOr]; sum != res.Nodes || sh[LeafKind] < 1 {
		t.Fatalf("shape %v sums to %d, want %d nodes and a leaf", sh, sum, res.Nodes)
	}
	return res, sh
}

// TestExample44 reproduces Example 4.4 / Figure 2 of the paper: the DNF
// Φ = {{x=1}, {x=2,y=1}, {x=2,z=1}, {u=1,v=1}, {u=2}} decomposes into an
// ⊗ root over a ⊕ on x and a ⊕ on u — the rules of Figure 1 as the
// Refiner's step applies them. Five clauses are within the
// inclusion–exclusion shortcut, so the exact run itself is one leaf.
func TestExample44(t *testing.T) {
	s := formula.NewSpace()
	x := s.AddVar(0.2, 0.3, 0.5) // domain {0,1,2}
	y := s.AddVar(0.6, 0.4)
	z := s.AddVar(0.7, 0.3)
	u := s.AddVar(0.2, 0.3, 0.5)
	v := s.AddVar(0.9, 0.1)
	phi := formula.NewDNF(
		formula.MustClause(formula.Atom{Var: x, Val: 1}),
		formula.MustClause(formula.Atom{Var: x, Val: 2}, formula.Atom{Var: y, Val: 1}),
		formula.MustClause(formula.Atom{Var: x, Val: 2}, formula.Atom{Var: z, Val: 1}),
		formula.MustClause(formula.Atom{Var: u, Val: 1}, formula.Atom{Var: v, Val: 1}),
		formula.MustClause(formula.Atom{Var: u, Val: 2}),
	)

	st := newState(context.Background(), s, Options{})
	sc := new(prepScratch)
	kind, subs, _ := st.step(phi, sc)
	if kind != IndepOr || len(subs) != 2 {
		t.Fatalf("root should be ⊗ with 2 children, got %v with %d", kind, len(subs))
	}
	comps := append([]formula.DNF(nil), subs...)
	for i, c := range comps {
		kind, branches, _ := st.step(c, sc)
		if kind != ExclOr || len(branches) != 2 {
			t.Fatalf("component %d should Shannon-expand into 2 branches, got %v with %d", i, kind, len(branches))
		}
	}

	want := formula.BruteForceProbability(s, phi)
	got, sh := exactShape(t, s, phi)
	if math.Abs(got.Estimate-want) > 1e-12 || sh != (Shape{LeafKind: 1}) {
		t.Fatalf("Exact %v with shape %v, want %v in one leaf", got.Estimate, sh, want)
	}
}

// TestCompileTrueAndSingleton: ⊤ and a single clause are leaves of the
// exact run at preparation.
func TestCompileTrueAndSingleton(t *testing.T) {
	s := formula.NewSpace()
	x := s.AddBool(0.4)
	if res, sh := exactShape(t, s, formula.DNF{formula.Clause{}}); res.Estimate != 1 || sh != (Shape{LeafKind: 1}) {
		t.Fatalf("⊤: P = %v, shape %v; want one probability-1 leaf", res.Estimate, sh)
	}
	if res, sh := exactShape(t, s, formula.NewDNF(formula.MustClause(formula.Pos(x)))); res.Estimate != 0.4 || sh != (Shape{LeafKind: 1}) {
		t.Fatalf("single clause: P = %v, shape %v; want one 0.4 leaf", res.Estimate, sh)
	}
}

// The empty DNF is false: one leaf, P 0 — also under a one-node budget,
// which the prepared root does not count against.
func TestCompileFalse(t *testing.T) {
	s := formula.NewSpace()
	s.AddBool(0.4)
	for _, d := range []formula.DNF{nil, {}} {
		if res, sh := exactShape(t, s, d); res.Estimate != 0 || sh != (Shape{LeafKind: 1}) {
			t.Fatalf("⊥: P = %v, shape %v; want one empty leaf", res.Estimate, sh)
		}
		if res, err := ExactCtx(context.Background(), s, d, Options{MaxNodes: 1}); err != nil || res.Estimate != 0 {
			t.Fatalf("⊥ under MaxNodes 1: %+v (%v)", res, err)
		}
	}
}

// TestCompileEquivalenceRandom is Proposition 4.5 on the exact run: the
// complete d-tree is equivalent to the DNF, so its probability is the
// brute-force one, on multi-valued and tagged inputs alike.
func TestCompileEquivalenceRandom(t *testing.T) {
	inner := 0
	for seed := int64(0); seed < 60; seed++ {
		cfg := randdnf.Default()
		cfg.Clauses = 12 // past the inclusion–exclusion shortcut
		if seed%3 == 0 {
			cfg.MaxDomain = 4 // exercise multi-valued Shannon branches
		}
		if seed%4 == 0 {
			cfg.TagEvery = 3 // exercise ⊙ factorization
		}
		s, d := randdnf.Generate(cfg, seed)
		res, sh := exactShape(t, s, d)
		want := formula.BruteForceProbability(s, d)
		if math.Abs(res.Estimate-want) > 1e-9 {
			t.Fatalf("seed %d: tree P=%v brute=%v", seed, res.Estimate, want)
		}
		inner += sh[IndepOr] + sh[IndepAnd] + sh[ExclOr]
	}
	if inner == 0 {
		t.Fatal("no run refined a single node")
	}
}

// TestCompileBudget: a node budget cuts an exact run with ErrBudget at
// [0, 1]; without one the same run completes.
func TestCompileBudget(t *testing.T) {
	s, d := randdnf.Generate(randdnf.Config{
		Vars: 14, Clauses: 20, MaxWidth: 4, MaxDomain: 2,
		MinProb: 0.2, MaxProb: 0.8,
	}, 7)
	res, err := ExactCtx(context.Background(), s, d, Options{MaxNodes: 3})
	if err != ErrBudget || res.Lo != 0 || res.Hi != 1 || res.Converged {
		t.Fatalf("tiny budget should fail at [0, 1], got %+v err=%v", res, err)
	}
	if res, err := ExactCtx(context.Background(), s, d, Options{}); err != nil || !res.Exact {
		t.Fatalf("unlimited budget failed: %+v (%v)", res, err)
	}
}

// TestCompileBoundsContainExact: the bounds of the materialized partial
// d-tree (Section V-B) contain the exact probability at every level of
// completion — after each single Refiner step down to a point.
func TestCompileBoundsContainExact(t *testing.T) {
	cfg := randdnf.Default()
	cfg.Clauses = 12 // past the inclusion–exclusion shortcut
	for seed := int64(0); seed < 25; seed++ {
		s, d := randdnf.Generate(cfg, seed)
		want := formula.BruteForceProbability(s, d)
		r := NewRefiner(context.Background(), s, d, Options{Eps: 1e-9, Kind: Absolute})
		for {
			lo, hi, done := r.Step(1)
			if lo > want+1e-9 || hi < want-1e-9 {
				t.Fatalf("seed %d step %d: [%v,%v] does not contain %v", seed, r.Steps(), lo, hi, want)
			}
			if done {
				break
			}
		}
	}
}

// hierarchicalLineage is the lineage of the hierarchical query
// q() :- R(A), S(A,B): for each of groups A-values a with S-partners
// b1..b_perGroup, clauses {r_a, s_ab}.
func hierarchicalLineage(groups, perGroup int) (*formula.Space, formula.DNF) {
	s := formula.NewSpace()
	var d formula.DNF
	for a := 0; a < groups; a++ {
		r := s.AddBoolTagged(0.3, 0)
		for b := 0; b < perGroup; b++ {
			d = append(d, formula.MustClause(formula.Pos(r), formula.Pos(s.AddBoolTagged(0.5, 1))))
		}
	}
	return s, d
}

// TestHierarchicalLineageLinearTree is Proposition 6.3 / Section VI on
// the exact run's counts: hierarchical lineage is 1OF-factorizable, so
// its complete d-tree has only ⊗ and ⊙ inner nodes, and its size is
// linear in the lineage — per group one ⊙ over {r_a} and an ⊗ over the
// eight s-clauses, under one ⊗ root.
func TestHierarchicalLineageLinearTree(t *testing.T) {
	for _, groups := range []int{8, 16} {
		s, d := hierarchicalLineage(groups, 8)
		res, sh := exactShape(t, s, d)
		if sh[ExclOr] != 0 || sh[IndepOr] != groups+1 || sh[IndepAnd] != groups {
			t.Fatalf("%d groups: shape %v, want %d ⊗, %d ⊙ and no ⊕", groups, sh, groups+1, groups)
		}
		if res.Nodes != 1+11*groups {
			t.Fatalf("%d groups: %d nodes, want %d (linear)", groups, res.Nodes, 1+11*groups)
		}
		prefix := d[:12]
		got, _ := exactShape(t, s, prefix)
		if want := formula.BruteForceProbability(s, prefix); math.Abs(got.Estimate-want) > 1e-12 {
			t.Fatalf("prefix probability mismatch: %v vs %v", got.Estimate, want)
		}
	}
}

// TestShannonProducesExclusiveBranches: non-hierarchical R(X),S(X,Y),T(Y)
// lineage — here the 3×3 grid — needs Shannon expansion.
func TestShannonProducesExclusiveBranches(t *testing.T) {
	s, d := tinyGrid(3, 0.5)
	res, sh := exactShape(t, s, d)
	if sh[ExclOr] == 0 {
		t.Fatalf("hard-pattern lineage should require ⊕ nodes, shape %v", sh)
	}
	if want := formula.BruteForceProbability(s, d); math.Abs(res.Estimate-want) > 1e-12 {
		t.Fatalf("P = %v, want %v", res.Estimate, want)
	}
}
