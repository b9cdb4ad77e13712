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
clause x v=2
clause !x y
clause v=0
`
	s, d, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := Write(&buf, s, d); err != nil {
		t.Fatal(err)
	}
	s2, d2, err := Parse(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, buf.String())
	}
	p1 := formula.BruteForceProbability(s, d)
	p2 := formula.BruteForceProbability(s2, d2)
	if math.Abs(p1-p2) > 1e-12 {
		t.Fatalf("round trip changed probability: %v vs %v", p1, p2)
	}
	if len(d2) != len(d) {
		t.Fatalf("round trip changed clause count: %d vs %d", len(d2), len(d))
	}
}
