package core

import (
	"strings"
	"testing"

	"repro/internal/formula"
)

func exampleTree(t *testing.T) (*formula.Space, *Node) {
	t.Helper()
	s := formula.NewSpace()
	x := s.AddBool(0.3)
	y := s.AddBool(0.2)
	z := s.AddBool(0.7)
	v := s.AddBool(0.8)
	s.SetName(x, "x")
	s.SetName(y, "y")
	s.SetName(z, "z")
	s.SetName(v, "v")
	phi := formula.NewDNF(
		formula.MustClause(formula.Pos(x), formula.Pos(y)),
		formula.MustClause(formula.Pos(x), formula.Pos(z)),
		formula.MustClause(formula.Pos(v)),
	)
	return s, Compile(s, phi)
}

func TestNodeSizeDepth(t *testing.T) {
	_, tree := exampleTree(t)
	if tree.Size() < 5 {
		t.Fatalf("size %d too small", tree.Size())
	}
	if tree.Depth() < 3 {
		t.Fatalf("depth %d too small", tree.Depth())
	}
	leaf := NewLeaf(formula.DNF{formula.Clause{}})
	if leaf.Size() != 1 || leaf.Depth() != 1 {
		t.Fatalf("leaf size/depth %d/%d", leaf.Size(), leaf.Depth())
	}
}

func TestNodeCountKind(t *testing.T) {
	_, tree := exampleTree(t)
	total := tree.CountKind(LeafKind) + tree.CountKind(IndepOr) +
		tree.CountKind(IndepAnd) + tree.CountKind(ExclOr)
	if total != tree.Size() {
		t.Fatalf("kind counts %d don't sum to size %d", total, tree.Size())
	}
	if tree.CountKind(IndepOr) == 0 {
		t.Fatal("expected at least one ⊗ node")
	}
}

func TestNodeString(t *testing.T) {
	s, tree := exampleTree(t)
	out := tree.String(s)
	for _, want := range []string{"⊗", "{v}"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
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

func TestNodeBoundsOnPartialTree(t *testing.T) {
	// Hand-built partial d-tree of Figure 4 with multi-clause leaves:
	// bounds must contain the exact probability.
	s := formula.NewSpace()
	a := s.AddBool(0.4)
	b := s.AddBool(0.5)
	c := s.AddBool(0.6)
	d := s.AddBool(0.7)
	leaf1 := NewLeaf(formula.NewDNF(
		formula.MustClause(formula.Pos(a), formula.Pos(b)),
		formula.MustClause(formula.Pos(b), formula.Pos(c)),
	))
	leaf2 := NewLeaf(formula.NewDNF(formula.MustClause(formula.Pos(d))))
	tree := &Node{Kind: IndepOr, Children: []*Node{leaf1, leaf2}}
	lo, hi := tree.Bounds(s)
	exact := tree.Probability(s)
	if lo > exact+1e-9 || hi < exact-1e-9 {
		t.Fatalf("bounds [%v,%v] miss exact %v", lo, hi, exact)
	}
}
