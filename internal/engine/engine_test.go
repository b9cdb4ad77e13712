package engine

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/formula"
	"repro/internal/randdnf"
)

func randInstance(seed int64) (*formula.Space, formula.DNF) {
	return randdnf.Generate(randdnf.Config{
		Vars: 14, Clauses: 18, MaxWidth: 3, MaxDomain: 2, MinProb: 0.1, MaxProb: 0.9,
	}, seed)
}

// TestEvaluatorsAgree checks every evaluator against brute force over
// random instances: the unified API must not change any algorithm's
// semantics.
func TestEvaluatorsAgree(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 10; seed++ {
		s, d := randInstance(seed)
		want := formula.BruteForceProbability(s, d)
		cases := []struct {
			name string
			ev   Evaluator
			tol  float64
		}{
			{"exact", Approx{}, 1e-9},
			{"exact-cache", Approx{Frags: formula.NewFragCache(0)}, 1e-9},
			{"approx-abs", Approx{Eps: 0.01, Kind: Absolute}, 0.01 + 1e-9},
			{"mc", MonteCarlo{Eps: 0.05, Delta: 0.01, Seed: seed}, 0.12},
		}
		for _, c := range cases {
			res, err := c.ev.Evaluate(ctx, s, d)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, c.name, err)
			}
			if !res.Converged {
				t.Fatalf("seed %d %s: not converged", seed, c.name)
			}
			if math.Abs(res.Estimate-want) > c.tol {
				t.Fatalf("seed %d %s: estimate %v, want %v±%v",
					seed, c.name, res.Estimate, want, c.tol)
			}
		}
	}
}

// TestRelativeGuaranteeBounds checks that MonteCarlo's inverted (ε, δ)
// interval contains the true probability on converged runs.
func TestRelativeGuaranteeBounds(t *testing.T) {
	s, d := randInstance(3)
	want := formula.BruteForceProbability(s, d)
	res, err := MonteCarlo{Eps: 0.05, Delta: 0.001, Seed: 9}.Evaluate(context.Background(), s, d)
	if err != nil || !res.Converged {
		t.Fatalf("mc: err=%v converged=%v", err, res.Converged)
	}
	if want < res.Lo-0.02 || want > res.Hi+0.02 {
		t.Fatalf("true p %v outside probabilistic bounds [%v, %v]", want, res.Lo, res.Hi)
	}
}

// TestMonteCarloRejectsParametersOutsideUnitInterval pins that
// MonteCarlo fails fast on Eps or Delta that is NaN or outside (0, 1),
// instead of burning its sample cap or converging to vacuous bounds.
func TestMonteCarloRejectsParametersOutsideUnitInterval(t *testing.T) {
	s, d := randInstance(2)
	for _, ev := range []MonteCarlo{
		{Eps: 0, Delta: 0.01}, {Eps: 0.05, Delta: 0}, {Eps: 1.5, Delta: 0.01},
		{Eps: 0.05, Delta: 1}, {Eps: math.NaN(), Delta: 0.01}, {Eps: 0.05, Delta: -0.5},
	} {
		start := time.Now()
		res, err := ev.Evaluate(context.Background(), s, d)
		if err == nil || res.Converged || res.Samples != 0 {
			t.Fatalf("%+v: err=%v converged=%v samples=%d, want an error before sampling",
				ev, err, res.Converged, res.Samples)
		}
		if el := time.Since(start); el > time.Second {
			t.Fatalf("%+v: rejection took %v", ev, el)
		}
	}
}

func TestBudgetExhaustion(t *testing.T) {
	s, d := randdnf.Generate(randdnf.Config{
		Vars: 60, Clauses: 200, MaxWidth: 4, MaxDomain: 2, MinProb: 0.2, MaxProb: 0.8,
	}, 5)
	_, err := Approx{MaxNodes: 3}.Evaluate(context.Background(), s, d)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestCancellation(t *testing.T) {
	s, d := randdnf.Generate(randdnf.Config{
		Vars: 80, Clauses: 400, MaxWidth: 5, MaxDomain: 2, MinProb: 0.2, MaxProb: 0.8,
	}, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		name string
		ev   Evaluator
	}{
		{"exact", Approx{}},
		{"approx", Approx{Eps: 0.001, Kind: Absolute}},
		{"mc", MonteCarlo{Eps: 0.001, Delta: 0.0001}},
	} {
		start := time.Now()
		_, err := c.ev.Evaluate(ctx, s, d)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", c.name, err)
		}
		if el := time.Since(start); el > 2*time.Second {
			t.Fatalf("%s: cancellation took %v, want prompt return", c.name, el)
		}
	}
}

// TestBudgetTimeout pins the two ways wall time reaches an evaluator:
// Approx reads its caller's context deadline, and MonteCarlo applies
// its Budget's Timeout to the context itself.
func TestBudgetTimeout(t *testing.T) {
	s, d := randdnf.Generate(randdnf.Config{
		Vars: 120, Clauses: 800, MaxWidth: 6, MaxDomain: 2, MinProb: 0.3, MaxProb: 0.7,
	}, 7)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	for _, c := range []struct {
		name string
		ctx  context.Context
		ev   Evaluator
	}{
		{"approx", ctx, Approx{}},
		{"mc", context.Background(), MonteCarlo{Eps: 0.001, Delta: 0.0001, Budget: Budget{Timeout: time.Millisecond}}},
	} {
		start := time.Now()
		_, err := c.ev.Evaluate(c.ctx, s, d)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: err = %v, want context.DeadlineExceeded", c.name, err)
		}
		if el := time.Since(start); el > 2*time.Second {
			t.Fatalf("%s: deadline enforcement took %v", c.name, el)
		}
	}
}

// TestBudgetTimeoutCancelledParent pins the Budget.Context contract: a
// Timeout wrapped around an already-cancelled parent must not grant the
// evaluation up to Timeout of extra life — the derived context is born
// cancelled with the parent's error, and evaluators return it promptly.
func TestBudgetTimeoutCancelledParent(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	cancel()

	ctx, cleanup := Budget{Timeout: time.Hour}.Context(parent)
	defer cleanup()
	if !errors.Is(ctx.Err(), context.Canceled) {
		t.Fatalf("derived ctx.Err() = %v, want context.Canceled", ctx.Err())
	}

	s, d := randInstance(1)
	for _, ev := range []Evaluator{
		Approx{}, Approx{Eps: 0.01},
		MonteCarlo{Eps: 0.01, Delta: 0.01, Budget: Budget{Timeout: time.Hour}},
	} {
		start := time.Now()
		res, err := ev.Evaluate(parent, s, d)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%T: err = %v, want context.Canceled", ev, err)
		}
		if res.Converged {
			t.Fatalf("%T: cancelled evaluation reports Converged", ev)
		}
		if el := time.Since(start); el > time.Second {
			t.Fatalf("%T: cancelled parent held the evaluation for %v", ev, el)
		}
	}

	// A nil parent is Background: the Timeout alone governs.
	nctx, ncleanup := Budget{}.Context(nil)
	defer ncleanup()
	if nctx.Err() != nil {
		t.Fatalf("nil-parent ctx.Err() = %v, want nil", nctx.Err())
	}
}

// TestApproxRejectsEpsOutsideUnitInterval pins that the d-tree fails
// fast on an Eps that is NaN, negative or ≥ 1: such an Eps would run a
// full compilation and return no error, or meet the guarantee
// vacuously at the first bounds.
func TestApproxRejectsEpsOutsideUnitInterval(t *testing.T) {
	s, d := randInstance(2)
	for _, eps := range []float64{math.NaN(), -0.01, -0.1, math.Inf(-1), 1, 1.5, 2, math.Inf(1)} {
		for _, ev := range []Evaluator{Approx{Eps: eps}, Approx{Eps: eps, Kind: Relative}} {
			res, err := ev.Evaluate(context.Background(), s, d)
			if err == nil || res.Converged || res.Nodes != 0 {
				t.Fatalf("eps %v: err=%v converged=%v nodes=%d, want an error before any work",
					eps, err, res.Converged, res.Nodes)
			}
		}
	}
}

// TestCacheSurfacedInResult checks that repeated evaluation through a
// shared cache reports hits in the cache's own counters.
func TestCacheSurfacedInResult(t *testing.T) {
	s, d := randInstance(8)
	cache := formula.NewFragCache(0)
	ev := Approx{Frags: cache}
	first, err := ev.Evaluate(context.Background(), s, d)
	if err != nil {
		t.Fatal(err)
	}
	afterFirst := cache.CacheStats()
	second, err := ev.Evaluate(context.Background(), s, d)
	if err != nil {
		t.Fatal(err)
	}
	if first.Estimate != second.Estimate {
		t.Fatalf("cache changed the estimate: %v vs %v", first.Estimate, second.Estimate)
	}
	if st := cache.CacheStats(); st.Hits == afterFirst.Hits {
		t.Fatalf("second run reported no cache hits (misses=%d, cache len=%d)",
			st.Misses-afterFirst.Misses, cache.Len())
	}
}
