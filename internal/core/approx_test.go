package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/formula"
	"repro/internal/randdnf"
)

// TestExample55 reproduces the bound propagation of Example 5.5 /
// Figure 4: the partial d-tree ⊗(Φ1, ⊕(⊙(x=1, Φ2), Φ3)) with leaf bounds
// Φ1 [0.1,0.11], x=1 [0.5,0.5], Φ2 [0.4,0.44], Φ3 [0.35,0.38] has bounds
// [0.595, 0.644].
func TestExample55(t *testing.T) {
	branchLo, branchHi := combine(IndepAnd, []float64{0.5, 0.4}, []float64{0.5, 0.44})
	xorLo, xorHi := combine(ExclOr, []float64{branchLo, 0.35}, []float64{branchHi, 0.38})
	lo, hi := combine(IndepOr, []float64{0.1, xorLo}, []float64{0.11, xorHi})
	if math.Abs(lo-0.595) > 1e-12 {
		t.Fatalf("L = %v, want 0.595", lo)
	}
	if math.Abs(hi-0.644) > 1e-12 {
		t.Fatalf("U = %v, want 0.644", hi)
	}
}

func TestApproxAbsoluteGuarantee(t *testing.T) {
	for _, eps := range []float64{0.2, 0.05, 0.01, 0.001} {
		for seed := int64(0); seed < 40; seed++ {
			cfg := randdnf.Default()
			cfg.Clauses = 7
			if seed%3 == 1 {
				cfg.MaxDomain = 3
			}
			if seed%5 == 0 {
				cfg.TagEvery = 3
			}
			s, d := randdnf.Generate(cfg, seed)
			want := formula.BruteForceProbability(s, d)
			res, err := ApproxCtx(context.Background(), s, d, Options{Eps: eps, Kind: Absolute})
			if err != nil {
				t.Fatalf("eps=%v seed=%d: %v", eps, seed, err)
			}
			if !res.Converged {
				t.Fatalf("eps=%v seed=%d: did not converge", eps, seed)
			}
			if math.Abs(res.Estimate-want) > eps+1e-9 {
				t.Fatalf("eps=%v seed=%d: |%v - %v| > ε (lo=%v hi=%v)",
					eps, seed, res.Estimate, want, res.Lo, res.Hi)
			}
			if res.Lo > want+1e-9 || res.Hi < want-1e-9 {
				t.Fatalf("eps=%v seed=%d: bounds [%v,%v] miss %v", eps, seed, res.Lo, res.Hi, want)
			}
		}
	}
}

func TestApproxRelativeGuarantee(t *testing.T) {
	for _, eps := range []float64{0.2, 0.05, 0.01} {
		for seed := int64(0); seed < 40; seed++ {
			cfg := randdnf.Default()
			cfg.Clauses = 7
			cfg.MinProb = 0.02
			s, d := randdnf.Generate(cfg, seed)
			want := formula.BruteForceProbability(s, d)
			res, err := ApproxCtx(context.Background(), s, d, Options{Eps: eps, Kind: Relative})
			if err != nil {
				t.Fatalf("eps=%v seed=%d: %v", eps, seed, err)
			}
			if res.Estimate < (1-eps)*want-1e-9 || res.Estimate > (1+eps)*want+1e-9 {
				t.Fatalf("eps=%v seed=%d: %v not within (1±ε)·%v", eps, seed, res.Estimate, want)
			}
		}
	}
}

func TestExactMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		cfg := randdnf.Default()
		if seed%2 == 0 {
			cfg.MaxDomain = 4
		}
		if seed%3 == 0 {
			cfg.TagEvery = 2
		}
		s, d := randdnf.Generate(cfg, seed)
		want := formula.BruteForceProbability(s, d)
		res, err := ExactCtx(context.Background(), s, d, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exact || math.Abs(res.Estimate-want) > 1e-9 {
			t.Fatalf("seed %d: exact=%v got %v want %v", seed, res.Exact, res.Estimate, want)
		}
	}
}

func TestApproxEpsZeroIsExact(t *testing.T) {
	s, d := randdnf.Generate(randdnf.Default(), 3)
	want := formula.BruteForceProbability(s, d)
	res, err := ApproxCtx(context.Background(), s, d, Options{Eps: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || math.Abs(res.Estimate-want) > 1e-12 {
		t.Fatalf("got %v (exact=%v), want %v", res.Estimate, res.Exact, want)
	}
}

func TestApproxEarlyStopOnIndependentClauses(t *testing.T) {
	// A DNF of pairwise-independent clauses has exact heuristic bounds
	// (single bucket), so Approx must stop before any decomposition —
	// the B16/B17 behaviour from the experiments: the root is the one
	// node.
	s := formula.NewSpace()
	var d formula.DNF
	for i := 0; i < 50; i++ {
		d = append(d, formula.MustClause(formula.Pos(s.AddBool(0.01+0.001*float64(i)))))
	}
	res, err := ApproxCtx(context.Background(), s, d, Options{Eps: 0.01, Kind: Relative})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != 1 {
		t.Fatalf("constructed %d nodes; expected early exit on exact bounds", res.Nodes)
	}
	if !res.Exact {
		t.Fatal("single-bucket bounds should be exact")
	}
}

func TestApproxTrivialInputs(t *testing.T) {
	s := formula.NewSpace()
	x := s.AddBool(0.5)
	res, err := ApproxCtx(context.Background(), s, formula.DNF{}, Options{Eps: 0.1, Kind: Absolute})
	if err != nil || res.Estimate != 0 || !res.Exact {
		t.Fatalf("false: %+v err=%v", res, err)
	}
	res, err = ApproxCtx(context.Background(), s, formula.DNF{formula.Clause{}}, Options{Eps: 0.1, Kind: Relative})
	if err != nil || res.Estimate != 1 || !res.Exact {
		t.Fatalf("true: %+v err=%v", res, err)
	}
	res, err = ApproxCtx(context.Background(), s, formula.NewDNF(formula.MustClause(formula.Pos(x))), Options{Eps: 0.1, Kind: Absolute})
	if err != nil || res.Estimate != 0.5 {
		t.Fatalf("singleton: %+v err=%v", res, err)
	}
}

func TestApproxBudget(t *testing.T) {
	s, d := randdnf.Generate(randdnf.Config{
		Vars: 16, Clauses: 24, MaxWidth: 4, MaxDomain: 2, MinProb: 0.3, MaxProb: 0.7,
	}, 11)
	want := formula.BruteForceProbability(s, d)
	res, err := ApproxCtx(context.Background(), s, d, Options{Eps: 1e-9, Kind: Absolute, MaxNodes: 5})
	if err != ErrBudget {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if res.Converged {
		t.Fatal("budget-limited run must not report convergence")
	}
	// The bounds reported at budget exhaustion are still correct bounds.
	if res.Lo > want+1e-9 || res.Hi < want-1e-9 {
		t.Fatalf("bounds [%v,%v] miss %v", res.Lo, res.Hi, want)
	}
}

func TestApproxDeterministic(t *testing.T) {
	s, d := randdnf.Generate(randdnf.Default(), 5)
	opt := Options{Eps: 0.01, Kind: Absolute}
	a, _ := ApproxCtx(context.Background(), s, d, opt)
	b, _ := ApproxCtx(context.Background(), s, d, opt)
	if a != b {
		t.Fatalf("non-deterministic results: %+v vs %+v", a, b)
	}
}

func TestApproxTighterEpsMoreNodes(t *testing.T) {
	// A smaller error should never require fewer nodes on the same input.
	s, d := randdnf.Generate(randdnf.Config{
		Vars: 12, Clauses: 14, MaxWidth: 3, MaxDomain: 2, MinProb: 0.2, MaxProb: 0.8,
	}, 21)
	loose, _ := ApproxCtx(context.Background(), s, d, Options{Eps: 0.2, Kind: Absolute})
	tight, _ := ApproxCtx(context.Background(), s, d, Options{Eps: 0.001, Kind: Absolute})
	if loose.Nodes > tight.Nodes {
		t.Fatalf("loose eps used %d nodes > tight eps %d", loose.Nodes, tight.Nodes)
	}
}

func TestIntervalWidthRespectsCondition(t *testing.T) {
	// On convergence, the reported interval satisfies the Prop. 5.8
	// sufficient condition used for the guarantee.
	for seed := int64(0); seed < 20; seed++ {
		s, d := randdnf.Generate(randdnf.Default(), seed)
		res, err := ApproxCtx(context.Background(), s, d, Options{Eps: 0.03, Kind: Absolute})
		if err != nil {
			t.Fatal(err)
		}
		if res.Converged && res.Hi-res.Lo > 2*0.03+1e-9 {
			t.Fatalf("seed %d: interval width %v > 2ε", seed, res.Hi-res.Lo)
		}
	}
}
