package mc

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/formula"
	"repro/internal/randdnf"
)

func TestKarpLubyUnbiased(t *testing.T) {
	// The mean of many fractional estimates converges to P(Φ); with
	// 200k samples the standard error is far below the 0.01 tolerance.
	s, d := randdnf.Generate(randdnf.Default(), 4)
	want := formula.BruteForceProbability(s, d)
	kl := NewKarpLuby(s, d, rand.New(rand.NewSource(1)))
	got := kl.Mean(200_000)
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("KL mean %v, brute %v", got, want)
	}
}

func TestKarpLubySampleRange(t *testing.T) {
	s, d := randdnf.Generate(randdnf.Default(), 9)
	kl := NewKarpLuby(s, d, rand.New(rand.NewSource(2)))
	for i := 0; i < 1000; i++ {
		x := kl.Sample()
		if x <= 0 || x > kl.Sum()+1e-12 {
			t.Fatalf("sample %v outside (0, S=%v]", x, kl.Sum())
		}
	}
}

func TestKarpLubySumIsUnionBound(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		s, d := randdnf.Generate(randdnf.Default(), seed)
		kl := NewKarpLuby(s, d, rand.New(rand.NewSource(seed)))
		want := formula.BruteForceProbability(s, d)
		if kl.Sum() < want-1e-9 {
			t.Fatalf("seed %d: S=%v below P=%v", seed, kl.Sum(), want)
		}
	}
}

func TestKarpLubyMultiValued(t *testing.T) {
	cfg := randdnf.Default()
	cfg.MaxDomain = 4
	s, d := randdnf.Generate(cfg, 7)
	want := formula.BruteForceProbability(s, d)
	kl := NewKarpLuby(s, d, rand.New(rand.NewSource(3)))
	if got := kl.Mean(200_000); math.Abs(got-want) > 0.01 {
		t.Fatalf("KL mean %v, brute %v", got, want)
	}
}

func TestKarpLubySingleClauseExactInExpectation(t *testing.T) {
	// With one clause, N(w) = 1 always and every sample equals S = P(c).
	s := formula.NewSpace()
	x := s.AddBool(0.37)
	y := s.AddBool(0.5)
	d := formula.NewDNF(formula.MustClause(formula.Pos(x), formula.Pos(y)))
	kl := NewKarpLuby(s, d, rand.New(rand.NewSource(4)))
	for i := 0; i < 100; i++ {
		if got := kl.Sample(); math.Abs(got-0.185) > 1e-12 {
			t.Fatalf("sample %v, want 0.185", got)
		}
	}
}

func TestAConfRelativeGuarantee(t *testing.T) {
	// δ = 0.01 per run; allow a small slack over ε for the (rare) failure
	// mass. Uses fixed seeds so the test is deterministic.
	for seed := int64(0); seed < 8; seed++ {
		s, d := randdnf.Generate(randdnf.Default(), seed)
		want := formula.BruteForceProbability(s, d)
		res, err := AConfCtx(context.Background(), s, d, AConfOptions{Eps: 0.05, Delta: 0.01, Seed: seed + 100})
		if err != nil || !res.Converged {
			t.Fatalf("seed %d: did not converge in %d samples", seed, res.Samples)
		}
		if math.Abs(res.Estimate-want) > 0.08*want+1e-9 {
			t.Fatalf("seed %d: estimate %v vs %v (rel err %.3f)", seed, res.Estimate, want,
				math.Abs(res.Estimate-want)/want)
		}
	}
}

func TestAConfTrivialInputs(t *testing.T) {
	s := formula.NewSpace()
	s.AddBool(0.5)
	ctx := context.Background()
	if res, err := AConfCtx(ctx, s, formula.DNF{}, AConfOptions{Eps: 0.1, Delta: 0.1}); err != nil || res.Estimate != 0 || !res.Converged {
		t.Fatalf("false: %+v, %v", res, err)
	}
	d := formula.DNF{formula.Clause{}}
	if res, err := AConfCtx(ctx, s, d, AConfOptions{Eps: 0.1, Delta: 0.1}); err != nil || res.Estimate != 1 || !res.Converged {
		t.Fatalf("true: %+v, %v", res, err)
	}
}

func TestAConfBudget(t *testing.T) {
	s, d := randdnf.Generate(randdnf.Default(), 3)
	res, err := AConfCtx(context.Background(), s, d, AConfOptions{Eps: 0.001, Delta: 0.001, MaxSamples: 50, Seed: 5})
	if err != nil || res.Converged {
		t.Fatalf("converged=%v err=%v: 50 samples cannot satisfy eps=0.001", res.Converged, err)
	}
	if res.Samples > 50 {
		t.Fatalf("used %d samples, budget 50", res.Samples)
	}
}

// TestAConfRejectsParametersOutsideUnitInterval pins that Eps or Delta
// that is NaN or outside (0, 1) fails before any sample is drawn,
// instead of running to the sample cap (Eps or Delta 0) or reporting a
// vacuous convergence (Eps ≥ 1).
func TestAConfRejectsParametersOutsideUnitInterval(t *testing.T) {
	s := formula.NewSpace()
	x, y := s.AddBool(0.3), s.AddBool(0.4)
	d := formula.NewDNF(formula.MustClause(formula.Pos(x)), formula.MustClause(formula.Pos(y)))
	for _, tc := range []struct{ eps, delta float64 }{
		{0, 0.01}, {0.05, 0}, {1.5, 0.01}, {1, 0.01}, {0.05, 1},
		{-0.1, 0.01}, {0.05, -1}, {math.NaN(), 0.01}, {0.05, math.NaN()},
		{math.Inf(1), 0.01},
	} {
		res, err := AConfCtx(context.Background(), s, d, AConfOptions{Eps: tc.eps, Delta: tc.delta})
		if err == nil {
			t.Fatalf("eps %v delta %v: nil error, want a parameter error", tc.eps, tc.delta)
		}
		if res.Samples != 0 || res.Converged || res.Lo != 0 || res.Hi != 1 {
			t.Fatalf("eps %v delta %v: %+v, want no samples and bounds [0, 1]", tc.eps, tc.delta, res)
		}
	}
}

func TestAConfDeterministicForSeed(t *testing.T) {
	s, d := randdnf.Generate(randdnf.Default(), 6)
	ctx := context.Background()
	a, _ := AConfCtx(ctx, s, d, AConfOptions{Eps: 0.1, Delta: 0.1, Seed: 9})
	b, _ := AConfCtx(ctx, s, d, AConfOptions{Eps: 0.1, Delta: 0.1, Seed: 9})
	if a != b {
		t.Fatalf("same seed gave %+v and %+v", a, b)
	}
}

func TestAConfSmallProbabilities(t *testing.T) {
	// Relative approximation is the interesting regime when P is small
	// (Section VII-3); verify on a low-probability DNF.
	s := formula.NewSpace()
	x := s.AddBool(0.003)
	y := s.AddBool(0.004)
	z := s.AddBool(0.01)
	d := formula.NewDNF(
		formula.MustClause(formula.Pos(x), formula.Pos(z)),
		formula.MustClause(formula.Pos(y)),
	)
	want := formula.BruteForceProbability(s, d)
	res, err := AConfCtx(context.Background(), s, d, AConfOptions{Eps: 0.05, Delta: 0.01, Seed: 11})
	if err != nil || math.Abs(res.Estimate-want)/want > 0.08 {
		t.Fatalf("rel err %.3f too large (est %v, want %v)",
			math.Abs(res.Estimate-want)/want, res.Estimate, want)
	}
}

func TestKarpLubyPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty DNF")
		}
	}()
	NewKarpLuby(formula.NewSpace(), formula.DNF{}, rand.New(rand.NewSource(1)))
}

func TestZeroOneEstimatorUnbiased(t *testing.T) {
	s, d := randdnf.Generate(randdnf.Default(), 4)
	want := formula.BruteForceProbability(s, d)
	kl := NewKarpLuby(s, d, rand.New(rand.NewSource(21)))
	total := 0.0
	const n = 300_000
	for i := 0; i < n; i++ {
		total += kl.SampleZeroOne()
	}
	if got := total / n; math.Abs(got-want) > 0.02 {
		t.Fatalf("zero-one mean %v, brute %v", got, want)
	}
}

func TestFractionalVarianceNotWorse(t *testing.T) {
	// The fractional estimator's variance is at most the zero-one
	// estimator's (it conditions on the sampled world); verify the
	// empirical variances respect that with slack.
	s, d := randdnf.Generate(randdnf.Default(), 15)
	klF := NewKarpLuby(s, d, rand.New(rand.NewSource(5)))
	klZ := NewKarpLuby(s, d, rand.New(rand.NewSource(5)))
	const n = 200_000
	varOf := func(sample func() float64) float64 {
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			x := sample()
			sum += x
			sumSq += x * x
		}
		mean := sum / n
		return sumSq/n - mean*mean
	}
	vF := varOf(klF.Sample)
	vZ := varOf(klZ.SampleZeroOne)
	if vF > vZ*1.05+1e-9 {
		t.Fatalf("fractional variance %v exceeds zero-one %v", vF, vZ)
	}
}

func TestZeroOneValues(t *testing.T) {
	s, d := randdnf.Generate(randdnf.Default(), 8)
	kl := NewKarpLuby(s, d, rand.New(rand.NewSource(9)))
	for i := 0; i < 500; i++ {
		x := kl.SampleZeroOne()
		if x != 0 && math.Abs(x-kl.Sum()) > 1e-12 {
			t.Fatalf("zero-one sample %v is neither 0 nor S=%v", x, kl.Sum())
		}
	}
}
