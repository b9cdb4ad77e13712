package formula

import "testing"

func TestInternerMergeCanonical(t *testing.T) {
	s := NewSpace()
	x := s.AddBool(0.5)
	y := s.AddBool(0.5)
	z := s.AddBool(0.5)

	in := NewInterner()
	a := MustClause(Pos(x))
	b := MustClause(Pos(y))
	m1, ok := in.MergeInterned(a, b)
	if !ok {
		t.Fatal("consistent merge refused")
	}
	m2, ok := in.MergeInterned(a, b)
	if !ok {
		t.Fatal("consistent merge refused")
	}
	if &m1[0] != &m2[0] {
		t.Fatal("repeated merge did not return the canonical instance")
	}
	want, _ := a.Merge(b)
	if !m1.Equal(want) {
		t.Fatalf("merge %v, want %v", m1, want)
	}
	// A third path to the same clause (merge with overlap) also lands on
	// the canonical instance.
	xy := MustClause(Pos(x), Pos(y))
	m3, ok := in.MergeInterned(xy, b)
	if !ok || &m3[0] != &m1[0] {
		t.Fatal("overlapping merge did not intern to the canonical instance")
	}
	if st := in.CacheStats(); st.Hits != 2 || st.Entries != 1 {
		t.Fatalf("stats hits=%d stored=%d, want 2, 1", st.Hits, st.Entries)
	}
	if _, ok := in.MergeInterned(xy, MustClause(Pos(z))); !ok {
		t.Fatal("independent merge refused")
	}
}

func TestInternerMergeInconsistent(t *testing.T) {
	s := NewSpace()
	v := s.AddVar(0.2, 0.3, 0.5)
	in := NewInterner()
	a := MustClause(Atom{Var: v, Val: 0})
	b := MustClause(Atom{Var: v, Val: 1})
	if _, ok := in.MergeInterned(a, b); ok {
		t.Fatal("inconsistent merge accepted")
	}
}

func TestInternerEmptyClauses(t *testing.T) {
	in := NewInterner()
	m, ok := in.MergeInterned(Clause{}, Clause{})
	if !ok || len(m) != 0 {
		t.Fatalf("⊤ ∧ ⊤ = %v, %v", m, ok)
	}
}
