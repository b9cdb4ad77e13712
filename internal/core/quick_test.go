package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/formula"
	"repro/internal/randdnf"
)

// Property-based tests (testing/quick) of the algorithm's invariants
// over randomized inputs.

// genFromSeed derives a random DNF configuration from an arbitrary seed,
// covering Boolean and multi-valued variables, tags, and clause shapes.
func genFromSeed(seed int64) (*formula.Space, formula.DNF) {
	cfg := randdnf.Config{
		Vars:     4 + int(uint64(seed)%9),    // 4..12
		Clauses:  2 + int(uint64(seed/7)%8),  // 2..9
		MaxWidth: 1 + int(uint64(seed/11)%3), // 1..3
		MinProb:  0.05,
		MaxProb:  0.95,
	}
	if seed%2 == 0 {
		cfg.MaxDomain = 4
	}
	if seed%3 == 0 {
		cfg.TagEvery = 3
	}
	return randdnf.Generate(cfg, seed)
}

func TestQuickBoundsContainExact(t *testing.T) {
	f := func(seed int64) bool {
		s, d := genFromSeed(seed)
		want := formula.BruteForceProbability(s, d)
		lo, hi := LeafBounds(s, d)
		return lo <= want+1e-9 && hi >= want-1e-9 && lo >= -1e-12 && hi <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickExactEqualsBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		s, d := genFromSeed(seed)
		want := formula.BruteForceProbability(s, d)
		res, err := ExactCtx(context.Background(), s, d, Options{})
		return err == nil && math.Abs(res.Estimate-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAbsoluteGuarantee(t *testing.T) {
	f := func(seed int64, e uint8) bool {
		eps := 0.001 + float64(e)/260.0 // 0.001 .. ~0.98
		s, d := genFromSeed(seed)
		want := formula.BruteForceProbability(s, d)
		res, err := ApproxCtx(context.Background(), s, d, Options{Eps: eps, Kind: Absolute})
		if err != nil || !res.Converged {
			return false
		}
		return math.Abs(res.Estimate-want) <= eps+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRelativeGuarantee(t *testing.T) {
	f := func(seed int64, e uint8) bool {
		eps := 0.01 + float64(e%80)/100.0 // 0.01 .. 0.80
		s, d := genFromSeed(seed)
		want := formula.BruteForceProbability(s, d)
		res, err := ApproxCtx(context.Background(), s, d, Options{Eps: eps, Kind: Relative})
		if err != nil || !res.Converged {
			return false
		}
		return res.Estimate >= (1-eps)*want-1e-9 && res.Estimate <= (1+eps)*want+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCompleteTreeEquivalence(t *testing.T) {
	// Proposition 4.5: the complete d-tree of Φ is equivalent to Φ. The
	// exact run builds it to exhaustion; its kinds sum to its nodes.
	f := func(seed int64) bool {
		s, d := genFromSeed(seed)
		res, sh := exactShape(t, s, d)
		want := formula.BruteForceProbability(s, d)
		return sh[LeafKind] >= 1 && math.Abs(res.Estimate-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTreeBoundsContainExact(t *testing.T) {
	// Proposition 5.4 on materialized partial trees: the Refiner's
	// bounds after every step, down to a complete tree.
	f := func(seed int64) bool {
		s, d := genFromSeed(seed)
		want := formula.BruteForceProbability(s, d)
		r := NewRefiner(context.Background(), s, d, Options{Eps: 1e-9, Kind: Absolute})
		for {
			lo, hi, done := r.Step(1)
			if lo > want+1e-9 || hi < want-1e-9 {
				return false
			}
			if done {
				return true
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInclusionExclusion(t *testing.T) {
	f := func(seed int64) bool {
		s, d := genFromSeed(seed)
		if len(d) > incExcMaxClauses {
			d = d[:incExcMaxClauses]
		}
		want := formula.BruteForceProbability(s, d)
		return math.Abs(inclusionExclusion(s, d)-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEstimateWithinBounds(t *testing.T) {
	f := func(seed int64) bool {
		s, d := genFromSeed(seed)
		res, err := ApproxCtx(context.Background(), s, d, Options{Eps: 0.05, Kind: Absolute})
		if err != nil {
			return false
		}
		// The reported interval is consistent and the estimate is a
		// valid ε-approximation of anything inside it.
		return res.Lo <= res.Hi && res.Estimate >= res.Lo-0.05-1e-9 &&
			res.Estimate <= res.Hi+0.05+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDecompositionInvariance(t *testing.T) {
	// The d-tree's subsumption removal, bucket order and leaf choice
	// change exploration, never semantics: the estimate stays within ε of the
	// brute-force probability.
	f := func(seed int64) bool {
		s, d := genFromSeed(seed)
		want := formula.BruteForceProbability(s, d)
		res, err := ApproxCtx(context.Background(), s, d, Options{Eps: 0.01, Kind: Absolute})
		return err == nil && math.Abs(res.Estimate-want) <= 0.01+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}
