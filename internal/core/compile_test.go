package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/formula"
	"repro/internal/randdnf"
)

// TestExample44 reproduces Example 4.4 / Figure 2 of the paper: the DNF
// Φ = {{x=1}, {x=2,y=1}, {x=2,z=1}, {u=1,v=1}, {u=2}} compiles into a
// complete d-tree with an ⊗ root over a ⊕ on x and a ⊕ on u.
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

	tree := Compile(s, phi)
	if !tree.Complete() {
		t.Fatal("exhaustive compilation should produce a complete d-tree")
	}
	if tree.Kind != IndepOr || len(tree.Children) != 2 {
		t.Fatalf("root should be ⊗ with 2 children, got %v with %d", tree.Kind, len(tree.Children))
	}
	for _, c := range tree.Children {
		if c.Kind != ExclOr {
			t.Fatalf("both components Shannon-expand: got %v", c.Kind)
		}
	}

	want := formula.BruteForceProbability(s, phi)
	if got := tree.Probability(s); math.Abs(got-want) > 1e-12 {
		t.Fatalf("tree probability %v, want %v", got, want)
	}
	if got, err := ExactCtx(context.Background(), s, phi, Options{}); err != nil || math.Abs(got.Estimate-want) > 1e-12 {
		t.Fatalf("Exact %v (%v), want %v", got.Estimate, err, want)
	}
}

func TestCompileTrueAndSingleton(t *testing.T) {
	s := formula.NewSpace()
	x := s.AddBool(0.4)
	tree := Compile(s, formula.DNF{formula.Clause{}})
	if tree.Kind != LeafKind || tree.Probability(s) != 1 {
		t.Fatal("⊤ should compile to a probability-1 leaf")
	}
	tree = Compile(s, formula.NewDNF(formula.MustClause(formula.Pos(x))))
	if tree.Kind != LeafKind || !tree.Complete() {
		t.Fatal("single clause should be a complete leaf")
	}
	if got := tree.Probability(s); got != 0.4 {
		t.Fatalf("P = %v", got)
	}
}

// The empty DNF is false: one leaf holding it, like Exact and Approx
// report 0. (Compile's own rule list used to miss the case and index
// the variable scan at -1.)
func TestCompileFalse(t *testing.T) {
	s := formula.NewSpace()
	s.AddBool(0.4)
	for _, d := range []formula.DNF{nil, {}} {
		tree, err := CompileBudget(s, d, 1)
		if err != nil {
			t.Fatalf("CompileBudget: %v", err)
		}
		for _, n := range []*Node{tree, Compile(s, d)} {
			if n.Kind != LeafKind || len(n.Leaf) != 0 || n.Size() != 1 || !n.Complete() {
				t.Fatalf("⊥ should compile to one complete empty leaf, got\n%s", n.String(s))
			}
			if p := n.Probability(s); p != 0 {
				t.Fatalf("P(⊥) = %v", p)
			}
		}
	}
}

func TestCompileEquivalenceRandom(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		cfg := randdnf.Default()
		if seed%3 == 0 {
			cfg.MaxDomain = 4 // exercise multi-valued Shannon branches
		}
		if seed%4 == 0 {
			cfg.TagEvery = 3 // exercise ⊙ factorization
		}
		s, d := randdnf.Generate(cfg, seed)
		tree := Compile(s, d)
		if !tree.Complete() {
			t.Fatalf("seed %d: incomplete tree", seed)
		}
		want := formula.BruteForceProbability(s, d)
		if got := tree.Probability(s); math.Abs(got-want) > 1e-9 {
			t.Fatalf("seed %d: tree P=%v brute=%v", seed, got, want)
		}
	}
}

func TestCompileBudget(t *testing.T) {
	s, d := randdnf.Generate(randdnf.Config{
		Vars: 14, Clauses: 20, MaxWidth: 4, MaxDomain: 2,
		MinProb: 0.2, MaxProb: 0.8,
	}, 7)
	if _, err := CompileBudget(s, d, 3); err != ErrBudget {
		t.Fatalf("tiny budget should fail, got err=%v", err)
	}
	tree, err := CompileBudget(s, d, 0)
	if err != nil || tree == nil {
		t.Fatalf("unlimited budget failed: %v", err)
	}
}

func TestCompileBoundsContainExact(t *testing.T) {
	// Bounds computed on the materialized tree (Section V-B) contain the
	// exact probability at any level of completion.
	for seed := int64(0); seed < 25; seed++ {
		s, d := randdnf.Generate(randdnf.Default(), seed)
		tree := Compile(s, d)
		want := formula.BruteForceProbability(s, d)
		lo, hi := tree.Bounds(s)
		if lo > want+1e-9 || hi < want-1e-9 {
			t.Fatalf("seed %d: [%v,%v] does not contain %v", seed, lo, hi, want)
		}
	}
}

func TestHierarchicalLineageLinearTree(t *testing.T) {
	// Lineage of the hierarchical query q() :- R(A), S(A,B): for each
	// A-value a with S-partners b1..bk, clauses {r_a, s_ab}. Such DNFs are
	// 1OF-factorizable, so the complete d-tree has one leaf per variable
	// and only ⊗/⊙ inner nodes (Proposition 6.3).
	s := formula.NewSpace()
	var d formula.DNF
	nVars := 0
	for a := 0; a < 8; a++ {
		r := s.AddBoolTagged(0.3, 0)
		nVars++
		for b := 0; b < 4; b++ {
			sv := s.AddBoolTagged(0.5, 1)
			nVars++
			d = append(d, formula.MustClause(formula.Pos(r), formula.Pos(sv)))
		}
	}
	tree := Compile(s, d)
	if !tree.Complete() {
		t.Fatal("incomplete")
	}
	if n := tree.CountKind(ExclOr); n != 0 {
		t.Fatalf("hierarchical lineage needed %d Shannon expansions, want 0", n)
	}
	leaves := tree.CountKind(LeafKind)
	if leaves != nVars {
		t.Fatalf("got %d leaves, want one per variable (%d)", leaves, nVars)
	}
	want := formula.BruteForceProbability(s, d[:0].Or(d[:6])) // sanity on a prefix
	got, err := ExactCtx(context.Background(), s, d[:0].Or(d[:6]), Options{})
	if err != nil || math.Abs(got.Estimate-want) > 1e-12 {
		t.Fatalf("prefix probability mismatch: %v (%v) vs %v", got.Estimate, err, want)
	}
}

func TestShannonProducesExclusiveBranches(t *testing.T) {
	// Non-hierarchical R(X),S(X,Y),T(Y) lineage needs Shannon expansion.
	s := formula.NewSpace()
	r1 := s.AddBoolTagged(0.5, 0)
	r2 := s.AddBoolTagged(0.5, 0)
	t1 := s.AddBoolTagged(0.5, 2)
	t2 := s.AddBoolTagged(0.5, 2)
	s11 := s.AddBoolTagged(0.5, 1)
	s12 := s.AddBoolTagged(0.5, 1)
	s21 := s.AddBoolTagged(0.5, 1)
	d := formula.NewDNF(
		formula.MustClause(formula.Pos(r1), formula.Pos(s11), formula.Pos(t1)),
		formula.MustClause(formula.Pos(r1), formula.Pos(s12), formula.Pos(t2)),
		formula.MustClause(formula.Pos(r2), formula.Pos(s21), formula.Pos(t1)),
	)
	tree := Compile(s, d)
	if tree.CountKind(ExclOr) == 0 {
		t.Fatal("hard-pattern lineage should require ⊕ nodes")
	}
	want := formula.BruteForceProbability(s, d)
	if got := tree.Probability(s); math.Abs(got-want) > 1e-12 {
		t.Fatalf("P = %v, want %v", got, want)
	}
}
