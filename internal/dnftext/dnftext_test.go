package dnftext

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/formula"
)

func TestParseExample52(t *testing.T) {
	input := `
# Example 5.2 of the paper
var x 0.3
var y 0.2
var z 0.7
var v 0.8
clause x y
clause x z
clause v
`
	s, d, err := Parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVars() != 4 || len(d) != 3 {
		t.Fatalf("vars %d clauses %d", s.NumVars(), len(d))
	}
	p, err := core.ExactCtx(context.Background(), s, d, core.Options{})
	if err != nil || math.Abs(p.Estimate-0.8456) > 1e-12 {
		t.Fatalf("P = %v (%v), want 0.8456", p.Estimate, err)
	}
}

func TestParseDiscreteAndNegation(t *testing.T) {
	input := `
var v 0.2 0.3 0.5
var x 0.4
clause v=2 !x
`
	s, d, err := Parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5 * 0.6
	if got := formula.BruteForceProbability(s, d); math.Abs(got-want) > 1e-12 {
		t.Fatalf("P = %v, want %v", got, want)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"undeclared", "clause x"},
		{"redeclared", "var x 0.5\nvar x 0.5"},
		{"bad prob", "var x nope"},
		{"prob out of range", "var x 1.5"},
		{"dist not summing", "var v 0.2 0.2"},
		{"unknown directive", "foo bar"},
		{"empty clause", "var x 0.5\nclause"},
		{"inconsistent clause", "var x 0.5\nclause x !x"},
		{"negate discrete", "var v 0.5 0.25 0.25\nclause !v=1"},
		{"bad value", "var v 0.5 0.5\nclause v=7"},
		{"non-boolean bare", "var v 0.2 0.3 0.5\nclause v"},
		{"var without prob", "var x"},
		{"name with =", "var a=1 0.3\nclause a=1"},
		{"name starting with !", "var !a 0.3\nclause x"},
		{"name starting with #", "var #a 0.3\nclause #a"},
	}
	for _, tc := range cases {
		if _, _, err := Parse(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestParseDuplicateClausesNormalized(t *testing.T) {
	in := "var x 0.5\nclause x\nclause x\n"
	_, d, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 1 {
		t.Fatalf("got %d clauses, want 1 after normalization", len(d))
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	in := `
var x 0.3
var v 0.2 0.3 0.5
var y 0.9
var b 0.3 0.7
clause x v=2
clause !x y
clause v=0
clause b=0 y
`
	s, d, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	checkRoundTrip(t, s, d)
}

// TestWriteRejectsUnreadableNames: Write fails, and writes nothing, on
// a name Parse cannot read back or one two of d's variables share.
func TestWriteRejectsUnreadableNames(t *testing.T) {
	for _, tc := range []struct {
		name string
		a, b string // names of the two variables; "" keeps the default
	}{
		{name: "equals sign", a: "a=1"},
		{name: "space", a: "a b"},
		{name: "tab", a: "a\tb"},
		{name: "non-breaking space", a: "a\u00a0b"},
		{name: "leading !", a: "!a"},
		{name: "leading #", a: "#a"},
		{name: "shared name", a: "y", b: "y"},
		{name: "a default name", a: "x1"},
	} {
		s := formula.NewSpace()
		va, vb := s.AddBool(0.3), s.AddBool(0.6)
		s.SetName(va, tc.a)
		s.SetName(vb, tc.b)
		var buf strings.Builder
		err := Write(&buf, s, formula.DNF{formula.Clause{formula.Pos(va)}, formula.Clause{formula.Pos(vb)}})
		if err == nil || buf.Len() != 0 {
			t.Errorf("%s: Write = %v with %q written, want an error and nothing", tc.name, err, buf.String())
		}
	}
	// A bad name on a variable d does not use is never written.
	s := formula.NewSpace()
	va, vb := s.AddBool(0.3), s.AddBool(0.6)
	s.SetName(vb, "b=1")
	checkRoundTrip(t, s, formula.DNF{formula.Clause{formula.Pos(va)}})
}

// checkRoundTrip asserts that Parse(Write(s, d)) gives d back: the same
// clauses in the same order, atom for atom by variable name and value,
// and every variable d uses with bitwise the same distribution.
func checkRoundTrip(t *testing.T, s *formula.Space, d formula.DNF) {
	t.Helper()
	var buf strings.Builder
	if err := Write(&buf, s, d); err != nil {
		t.Fatal(err)
	}
	s2, d2, err := Parse(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, buf.String())
	}
	if len(d2) != len(d) {
		t.Fatalf("round trip changed clause count: %d vs %d\n%s", len(d2), len(d), buf.String())
	}
	for i, c := range d {
		c2 := d2[i]
		if len(c2) != len(c) {
			t.Fatalf("clause %d: %s became %s", i, c.String(s), c2.String(s2))
		}
		for j, a := range c {
			b := c2[j]
			if s.Name(a.Var) != s2.Name(b.Var) || a.Val != b.Val || s.DomainSize(a.Var) != s2.DomainSize(b.Var) {
				t.Fatalf("clause %d: %s became %s", i, c.String(s), c2.String(s2))
			}
			for val := 0; val < s.DomainSize(a.Var); val++ {
				p := s.P(formula.Atom{Var: a.Var, Val: formula.Val(val)})
				p2 := s2.P(formula.Atom{Var: b.Var, Val: formula.Val(val)})
				if math.Float64bits(p) != math.Float64bits(p2) {
					t.Fatalf("P(%s=%d) = %v became %v\n%s", s.Name(a.Var), val, p, p2, buf.String())
				}
			}
		}
	}
}

// FuzzDnftextRoundTrip: any text Parse accepts survives Write and a
// second Parse with the same clauses and bitwise the same atom
// probabilities; no input panics either function. The seed corpus
// lives in testdata/fuzz.
func FuzzDnftextRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		s, d, err := Parse(strings.NewReader(in))
		if err != nil {
			return
		}
		checkRoundTrip(t, s, d)
	})
}

// TestParsedNames: every parsed variable is named as declared, Boolean
// or not.
func TestParsedNames(t *testing.T) {
	names := []string{"a", "lineitem#3", "orders/blk2", "x9", "b"}
	s, _, err := Parse(strings.NewReader("var a 0.3\nvar lineitem#3 0.5\nvar orders/blk2 0.2 0.3 0.5\nvar x9 0.9\nvar b 0.4 0.6\nclause a\n"))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVars() != len(names) {
		t.Fatalf("%d variables, want %d", s.NumVars(), len(names))
	}
	for v, want := range names {
		if got := s.Name(formula.Var(v)); got != want {
			t.Errorf("Name(%d) = %q, want %q", v, got, want)
		}
	}
}
