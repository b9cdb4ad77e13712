package formula

import (
	"testing"
)

func boolSpace(t *testing.T, probs ...float64) (*Space, []Var) {
	t.Helper()
	s := NewSpace()
	vars := make([]Var, len(probs))
	for i, p := range probs {
		vars[i] = s.AddBool(p)
	}
	return s, vars
}

func TestNewClauseNormalizes(t *testing.T) {
	_, vs := boolSpace(t, 0.5, 0.5, 0.5)
	x, y, z := vs[0], vs[1], vs[2]
	c, ok := NewClause(Pos(z), Pos(x), Pos(y), Pos(x))
	if !ok {
		t.Fatal("expected consistent clause")
	}
	want := Clause{Pos(x), Pos(y), Pos(z)}
	if !c.Equal(want) {
		t.Fatalf("got %v, want %v", c, want)
	}
}

func TestNewClauseInconsistent(t *testing.T) {
	_, vs := boolSpace(t, 0.5)
	x := vs[0]
	if _, ok := NewClause(Pos(x), Neg(x)); ok {
		t.Fatal("x ∧ ¬x should be inconsistent")
	}
}

func TestNewClauseMultiValued(t *testing.T) {
	s := NewSpace()
	v := s.AddVar(0.2, 0.3, 0.5)
	if _, ok := NewClause(Atom{v, 0}, Atom{v, 2}); ok {
		t.Fatal("v=0 ∧ v=2 should be inconsistent")
	}
	c, ok := NewClause(Atom{v, 2}, Atom{v, 2})
	if !ok || len(c) != 1 {
		t.Fatalf("duplicate atom should collapse, got %v ok=%v", c, ok)
	}
}

func TestClauseProbability(t *testing.T) {
	s, vs := boolSpace(t, 0.3, 0.2)
	c := MustClause(Pos(vs[0]), Pos(vs[1]))
	if got := c.Probability(s); !close(got, 0.06) {
		t.Fatalf("P = %v, want 0.06", got)
	}
	if got := (Clause{}).Probability(s); got != 1 {
		t.Fatalf("empty clause P = %v, want 1", got)
	}
	neg := MustClause(Neg(vs[0]))
	if got := neg.Probability(s); !close(got, 0.7) {
		t.Fatalf("P(¬x) = %v, want 0.7", got)
	}
}

func TestClauseLookup(t *testing.T) {
	_, vs := boolSpace(t, 0.5, 0.5, 0.5, 0.5, 0.5)
	c := MustClause(Pos(vs[0]), Neg(vs[2]), Pos(vs[4]))
	cases := []struct {
		v    Var
		want Val
		ok   bool
	}{
		{vs[0], True, true},
		{vs[1], 0, false},
		{vs[2], False, true},
		{vs[3], 0, false},
		{vs[4], True, true},
	}
	for _, tc := range cases {
		val, ok := c.Lookup(tc.v)
		if ok != tc.ok || (ok && val != tc.want) {
			t.Errorf("Lookup(%d) = %v,%v want %v,%v", tc.v, val, ok, tc.want, tc.ok)
		}
	}
}

func TestClauseSubsumes(t *testing.T) {
	_, vs := boolSpace(t, 0.5, 0.5, 0.5)
	x, y, z := vs[0], vs[1], vs[2]
	cases := []struct {
		a, b Clause
		want bool
	}{
		{MustClause(Pos(x)), MustClause(Pos(x), Pos(y)), true},
		{MustClause(Pos(x), Pos(y)), MustClause(Pos(x)), false},
		{MustClause(Pos(x)), MustClause(Neg(x), Pos(y)), false},
		{MustClause(Pos(x), Pos(z)), MustClause(Pos(x), Pos(y), Pos(z)), true},
		{Clause{}, MustClause(Pos(x)), true},
		{MustClause(Pos(x)), MustClause(Pos(x)), true},
		{MustClause(Pos(y)), MustClause(Pos(x), Pos(z)), false},
	}
	for i, tc := range cases {
		if got := tc.a.Subsumes(tc.b); got != tc.want {
			t.Errorf("case %d: Subsumes = %v, want %v", i, got, tc.want)
		}
	}
}

func TestClauseRestrict(t *testing.T) {
	_, vs := boolSpace(t, 0.5, 0.5)
	x, y := vs[0], vs[1]
	c := MustClause(Pos(x), Pos(y))

	r, ok := c.Restrict(x, True)
	if !ok || !r.Equal(MustClause(Pos(y))) {
		t.Fatalf("restrict x=1: got %v ok=%v", r, ok)
	}
	if _, ok := c.Restrict(x, False); ok {
		t.Fatal("restrict x=0 of clause containing x should be inconsistent")
	}
	r, ok = c.Restrict(99, True)
	if !ok || !r.Equal(c) {
		t.Fatal("restricting an absent variable should be identity")
	}
}

func TestClauseMerge(t *testing.T) {
	_, vs := boolSpace(t, 0.5, 0.5, 0.5)
	x, y, z := vs[0], vs[1], vs[2]
	a := MustClause(Pos(x), Pos(y))
	b := MustClause(Pos(y), Pos(z))
	m, ok := a.Merge(b)
	if !ok || !m.Equal(MustClause(Pos(x), Pos(y), Pos(z))) {
		t.Fatalf("merge got %v ok=%v", m, ok)
	}
	c := MustClause(Neg(y))
	if _, ok := a.Merge(c); ok {
		t.Fatal("merge of y and ¬y should fail")
	}
	m, ok = a.Merge(Clause{})
	if !ok || !m.Equal(a) {
		t.Fatal("merge with ⊤ should be identity")
	}
}

func TestClauseKeyDistinct(t *testing.T) {
	_, vs := boolSpace(t, 0.5, 0.5)
	x, y := vs[0], vs[1]
	keys := map[string]string{}
	for _, c := range []Clause{
		MustClause(Pos(x)),
		MustClause(Neg(x)),
		MustClause(Pos(y)),
		MustClause(Pos(x), Pos(y)),
		MustClause(Pos(x), Neg(y)),
		{},
	} {
		k := c.Key()
		if prev, dup := keys[k]; dup {
			t.Fatalf("key collision between %v and %v", prev, c)
		}
		keys[k] = k
	}
}

func TestClauseString(t *testing.T) {
	s := NewSpace()
	x := s.AddBool(0.5)
	v := s.AddVar(0.5, 0.25, 0.25)
	s.SetName(x, "x")
	s.SetName(v, "v")
	c := MustClause(Pos(x), Atom{v, 2})
	if got := c.String(s); got != "x ∧ v=2" {
		t.Fatalf("String = %q", got)
	}
	if got := MustClause(Neg(x)).String(s); got != "¬x" {
		t.Fatalf("String = %q", got)
	}
	if got := (Clause{}).String(s); got != "⊤" {
		t.Fatalf("String = %q", got)
	}
}

func close(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-12
}
