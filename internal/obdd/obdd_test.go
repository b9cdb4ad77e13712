package obdd

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/formula"
	"repro/internal/randdnf"
)

func booleanDNF(seed int64) (*formula.Space, formula.DNF) {
	cfg := randdnf.Default()
	cfg.MaxDomain = 2
	return randdnf.Generate(cfg, seed)
}

func TestProbabilityMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		s, d := booleanDNF(seed)
		b, err := Build(s, d, nil)
		if err != nil {
			return false
		}
		want := formula.BruteForceProbability(s, d)
		return math.Abs(b.Probability()-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestProbabilityMatchesDtreeExact(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		s, d := booleanDNF(seed)
		b, err := Build(s, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.ExactCtx(context.Background(), s, d, core.Options{})
		if err != nil || math.Abs(b.Probability()-want.Estimate) > 1e-9 {
			t.Fatalf("seed %d: obdd %v vs d-tree %v (%v)", seed, b.Probability(), want.Estimate, err)
		}
	}
}

func TestTerminalCases(t *testing.T) {
	s := formula.NewSpace()
	x := s.AddBool(0.5)
	b, err := Build(s, formula.DNF{}, nil)
	if err != nil || b.Probability() != 0 {
		t.Fatalf("false: %v %v", b.Probability(), err)
	}
	b, err = Build(s, formula.DNF{formula.Clause{}}, nil)
	if err != nil || b.Probability() != 1 {
		t.Fatalf("true: %v %v", b.Probability(), err)
	}
	b, err = Build(s, formula.NewDNF(formula.MustClause(formula.Pos(x))), nil)
	if err != nil || b.Probability() != 0.5 || b.Size() != 1 {
		t.Fatalf("x: p=%v size=%d err=%v", b.Probability(), b.Size(), err)
	}
}

func TestRejectsMultiValued(t *testing.T) {
	s := formula.NewSpace()
	v := s.AddVar(0.2, 0.3, 0.5)
	d := formula.NewDNF(formula.MustClause(formula.Atom{Var: v, Val: 1}))
	if _, err := Build(s, d, nil); !errors.Is(err, ErrNotBoolean) {
		t.Fatalf("err = %v, want ErrNotBoolean", err)
	}
}

func TestOrderValidation(t *testing.T) {
	s := formula.NewSpace()
	x := s.AddBool(0.5)
	y := s.AddBool(0.5)
	d := formula.NewDNF(formula.MustClause(formula.Pos(x), formula.Pos(y)))
	if _, err := Build(s, d, []formula.Var{x, x}); err == nil {
		t.Fatal("repeated variable in order should fail")
	}
	if _, err := Build(s, d, []formula.Var{x}); err == nil {
		t.Fatal("missing variable should fail")
	}
	if _, err := Build(s, d, []formula.Var{y, x}); err != nil {
		t.Fatalf("valid order rejected: %v", err)
	}
}

func TestHierarchicalLineageLinearSize(t *testing.T) {
	// 1OF-factorizable lineage has an OBDD with one node per variable
	// under the hierarchical order (r_a before its s_ab block).
	s := formula.NewSpace()
	var d formula.DNF
	var order []formula.Var
	for a := 0; a < 10; a++ {
		r := s.AddBoolTagged(0.3, 0)
		order = append(order, r)
		for bIdx := 0; bIdx < 5; bIdx++ {
			sv := s.AddBoolTagged(0.5, 1)
			order = append(order, sv)
			d = append(d, formula.MustClause(formula.Pos(r), formula.Pos(sv)))
		}
	}
	b, err := Build(s, d, order)
	if err != nil {
		t.Fatal(err)
	}
	nVars := len(order)
	if b.Size() > 2*nVars {
		t.Fatalf("OBDD size %d not linear in %d variables", b.Size(), nVars)
	}
	want, err := core.ExactCtx(context.Background(), s, d, core.Options{})
	if err != nil || math.Abs(b.Probability()-want.Estimate) > 1e-9 {
		t.Fatalf("P = %v, want %v (%v)", b.Probability(), want.Estimate, err)
	}
}

func TestEvaluateAgreesWithSemantics(t *testing.T) {
	s, d := booleanDNF(5)
	b, err := Build(s, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	vars := d.Vars()
	assign := make(map[formula.Var]formula.Val, len(vars))
	for mask := 0; mask < 1<<len(vars); mask++ {
		for i, v := range vars {
			if mask&(1<<i) != 0 {
				assign[v] = formula.True
			} else {
				assign[v] = formula.False
			}
		}
		if b.Evaluate(assign) != formula.EvaluateWorld(d, assign) {
			t.Fatalf("disagreement on %v", assign)
		}
	}
}

func TestReadOnceSmall(t *testing.T) {
	// (x1 ∨ x2) ∧ (y1 ∨ y2) expanded into DNF: read-once, so the OBDD
	// has one node per variable.
	s := formula.NewSpace()
	x1, x2 := s.AddBool(0.2), s.AddBool(0.3)
	y1, y2 := s.AddBool(0.4), s.AddBool(0.5)
	var d formula.DNF
	for _, x := range []formula.Var{x1, x2} {
		for _, y := range []formula.Var{y1, y2} {
			d = append(d, formula.MustClause(formula.Pos(x), formula.Pos(y)))
		}
	}
	b, err := Build(s, d, []formula.Var{x1, x2, y1, y2})
	if err != nil {
		t.Fatal(err)
	}
	if b.Size() != 4 {
		t.Fatalf("read-once OBDD size %d, want 4", b.Size())
	}
	want := (1 - 0.8*0.7) * (1 - 0.6*0.5)
	if math.Abs(b.Probability()-want) > 1e-12 {
		t.Fatalf("P = %v, want %v", b.Probability(), want)
	}
}

func TestSizeDeterministic(t *testing.T) {
	s, d := booleanDNF(11)
	a, err1 := Build(s, d, nil)
	b, err2 := Build(s, d, nil)
	if err1 != nil || err2 != nil || a.Size() != b.Size() {
		t.Fatalf("sizes %d vs %d (%v/%v)", a.Size(), b.Size(), err1, err2)
	}
}
