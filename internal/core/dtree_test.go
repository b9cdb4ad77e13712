package core

import (
	"context"
	"testing"

	"repro/internal/formula"
)

// TestNodeCountKind: the exact run's per-kind counts sum to its node
// count, and a formula of independent groups too wide for
// inclusion–exclusion has an ⊗ root.
func TestNodeCountKind(t *testing.T) {
	s := formula.NewSpace()
	var d formula.DNF
	for i := 0; i < 8; i++ {
		x, y := s.AddBool(0.3), s.AddBool(0.2)
		d = append(d, formula.MustClause(formula.Pos(x), formula.Pos(y)))
	}
	_, sh := exactShape(t, s, d)
	if sh != (Shape{LeafKind: 8, IndepOr: 1}) {
		t.Fatalf("shape %v, want one ⊗ over 8 leaves", sh)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		LeafKind: "leaf",
		IndepOr:  "⊗",
		IndepAnd: "⊙",
		ExclOr:   "⊕",
		Kind(9):  "Kind(9)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestErrorKindString(t *testing.T) {
	if Absolute.String() != "absolute" || Relative.String() != "relative" {
		t.Fatal("ErrorKind.String mismatch")
	}
}

// TestNodeBoundsOnPartialTree: the bounds of a partial d-tree with
// multi-clause leaves (Figure 4) contain the exact probability — here
// the Refiner's tree after its first step on the 3×3 grid, a ⊕ with
// leaves still open.
func TestNodeBoundsOnPartialTree(t *testing.T) {
	s, d := tinyGrid(3, 0.5)
	r := NewRefiner(context.Background(), s, d, Options{Eps: 1e-9})
	lo, hi, done := r.Step(1)
	if done || r.root.kind == LeafKind || len(r.open) == 0 {
		t.Fatalf("want a partial tree after one step: done=%v kind=%v open=%d", done, r.root.kind, len(r.open))
	}
	exact := formula.BruteForceProbability(s, d)
	if lo > exact+1e-9 || hi < exact-1e-9 {
		t.Fatalf("bounds [%v,%v] miss exact %v", lo, hi, exact)
	}
}
