package repro_test

import (
	"context"
	"math"
	"testing"

	"repro"
)

// TestFacade exercises the root package's re-exported API end to end.
func TestFacade(t *testing.T) {
	s := repro.NewSpace()
	x := s.AddBool(0.3)
	y := s.AddBool(0.2)
	z := s.AddBool(0.7)
	v := s.AddBool(0.8)

	mk := func(atoms ...repro.Atom) repro.Clause {
		c, ok := repro.NewClause(atoms...)
		if !ok {
			t.Fatal("inconsistent clause in facade test")
		}
		return c
	}
	pos := func(v repro.Var) repro.Atom { return repro.Atom{Var: v, Val: 1} }
	phi := repro.NewDNF(
		mk(pos(x), pos(y)),
		mk(pos(x), pos(z)),
		mk(pos(v)),
	)

	ctx := context.Background()
	exact, err := repro.ApproxEval{}.Evaluate(ctx, s, phi)
	if err != nil || !exact.Exact || math.Abs(exact.Estimate-0.8456) > 1e-12 {
		t.Fatalf("exact = %+v err=%v, want 0.8456", exact, err)
	}

	lo, hi := repro.Bounds(s, phi)
	if lo > 0.8456 || hi < 0.8456 {
		t.Fatalf("bounds [%v, %v] miss the exact probability", lo, hi)
	}

	res, err := repro.ApproxEval{Eps: 0.01, Kind: repro.Absolute}.Evaluate(ctx, s, phi)
	if err != nil || !res.Converged {
		t.Fatalf("approx failed: %+v err=%v", res, err)
	}
	if math.Abs(res.Estimate-0.8456) > 0.01+1e-9 {
		t.Fatalf("estimate %v not within 0.01 of 0.8456", res.Estimate)
	}

	rel, err := repro.ApproxEval{Eps: 0.05, Kind: repro.Relative}.Evaluate(ctx, s, phi)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Estimate < 0.95*0.8456-1e-9 || rel.Estimate > 1.05*0.8456+1e-9 {
		t.Fatalf("relative estimate %v out of range", rel.Estimate)
	}

	mc, err := repro.MonteCarloEval{Eps: 0.05, Delta: 0.01, Seed: 1}.Evaluate(ctx, s, phi)
	if err != nil || math.Abs(mc.Estimate-0.8456) > 0.05 {
		t.Fatalf("aconf estimate %v too far (err=%v)", mc.Estimate, err)
	}
}
