package mc

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/formula"
)

// AConfOptions configures AConfCtx. The zero value of MaxSamples means
// the default cap of 50 million estimator calls; Seed 0 means seed 1.
type AConfOptions struct {
	Eps        float64 // relative error ε, 0 < ε < 1
	Delta      float64 // failure probability δ, 0 < δ < 1
	MaxSamples int
	// Seed seeds the call's own generator, so concurrent calls sharing
	// one AConfOptions value are safe and each is deterministic.
	Seed int64
}

const defaultMaxSamples = 50_000_000

// AConfCtx is the aconf() operator of MayBMS (Section VII-1): an (ε, δ)
// relative approximation of P(d) combining the fractional Karp-Luby
// estimator with the Dagum-Karp-Luby-Ross AA optimal stopping
// algorithm [6]. With probability at least 1−δ the returned estimate is
// within relative error ε of P(d), and [Lo, Hi] inverts that guarantee
// to contain P(d); Lo and Hi are 0 and 1 when the run did not converge.
// Eps or Delta outside (0, 1), NaN included, is an error returned
// before any sample is drawn. The sample loops poll ctx every
// ctxCheckStride samples and return the best-effort estimate so far with
// Converged false and the context's error when it fires.
func AConfCtx(ctx context.Context, s *formula.Space, d formula.DNF, opt AConfOptions) (core.Result, error) {
	if !(opt.Eps > 0 && opt.Eps < 1) || !(opt.Delta > 0 && opt.Delta < 1) {
		return core.Result{Hi: 1}, fmt.Errorf("mc: eps %v and delta %v must both lie in (0, 1)", opt.Eps, opt.Delta)
	}
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	var (
		res core.Result
		err error
	)
	d = d.Normalize()
	switch {
	case len(d) == 0:
		res = core.Result{Converged: true}
	case d.IsTrue():
		res = core.Result{Estimate: 1, Converged: true}
	default:
		kl := NewKarpLuby(s, d, rand.New(rand.NewSource(seed)))
		res, err = dklr(ctx, kl.SampleNormalized, opt)
		res.Estimate = min(res.Estimate*kl.Sum(), 1)
	}
	res.Lo, res.Hi = 0, 1
	if res.Converged {
		// Invert the relative guarantee (1−ε)p ≤ p̂ ≤ (1+ε)p.
		res.Lo = res.Estimate / (1 + opt.Eps)
		res.Hi = min(res.Estimate/(1-opt.Eps), 1)
	}
	return res, err
}

// ctxCheckStride is how many estimator calls pass between context polls:
// frequent enough to stop within microseconds, rare enough to stay off
// the sampling hot path.
const ctxCheckStride = 1024

// dklr runs the AA algorithm of Dagum, Karp, Luby and Ross on a sampler
// of i.i.d. values in [0, 1] with unknown mean μ > 0, returning an
// (ε, δ) relative approximation of μ.
//
// The three steps follow the published algorithm:
//  1. a stopping-rule run with parameters (min(1/2, √ε), δ/3) yields a
//     crude estimate μ̂,
//  2. μ̂ sizes a variance-estimation run over sample pairs, giving
//     ρ̂ = max(sample variance, ε·μ̂),
//  3. ρ̂ and μ̂ size the final averaging run whose mean is returned.
func dklr(ctx context.Context, sample func() float64, opt AConfOptions) (core.Result, error) {
	eps, delta := opt.Eps, opt.Delta
	budget := opt.MaxSamples
	if budget <= 0 {
		budget = defaultMaxSamples
	}
	lambda := math.E - 2 // optimal constant of the AA analysis
	used := 0
	// Poll on a dedicated per-check counter, not on used: the variance
	// loop advances used by 2, which would skip every used%stride==0
	// poll when used enters it odd. The first call polls immediately so
	// a dead context fails fast.
	polls := 0
	canceled := func() error {
		polls++
		if polls%ctxCheckStride != 1 {
			return nil
		}
		return ctx.Err()
	}

	// Step 1: stopping rule SRA(min(1/2, √ε), δ/3).
	eps1 := math.Min(0.5, math.Sqrt(eps))
	upsilon1 := 4 * lambda * math.Log(2/(delta/3)) / (eps1 * eps1)
	threshold := 1 + (1+eps1)*upsilon1
	sum := 0.0
	n1 := 0
	for sum < threshold {
		if err := canceled(); err != nil {
			return budgetResult(sum, n1, used), err
		}
		if used >= budget {
			return budgetResult(sum, n1, used), nil
		}
		sum += sample()
		n1++
		used++
	}
	muHat := threshold / float64(n1)

	// Step 2: variance estimation over N2 sample pairs.
	upsilon := 4 * lambda * math.Log(2/delta) / (eps * eps)
	upsilon2 := 2 * (1 + math.Sqrt(eps)) * (1 + 2*math.Sqrt(eps)) *
		(1 + math.Log(1.5)/math.Log(2/delta)) * upsilon
	n2 := int(math.Ceil(upsilon2 * eps / muHat))
	if n2 < 1 {
		n2 = 1
	}
	var s2 float64
	for i := 0; i < n2; i++ {
		if err := canceled(); err != nil {
			return budgetResult(muHat*float64(n1), n1, used), err
		}
		if used+2 > budget {
			return budgetResult(muHat*float64(n1), n1, used), nil
		}
		a := sample()
		b := sample()
		used += 2
		s2 += (a - b) * (a - b) / 2
	}
	rhoHat := math.Max(s2/float64(n2), eps*muHat)

	// Step 3: final averaging run.
	n3 := int(math.Ceil(upsilon2 * rhoHat / (muHat * muHat)))
	if n3 < 1 {
		n3 = 1
	}
	total := 0.0
	done := 0
	for i := 0; i < n3; i++ {
		if err := canceled(); err != nil {
			return budgetResult(total, done, used), err
		}
		if used >= budget {
			return budgetResult(total, done, used), nil
		}
		total += sample()
		done++
		used++
	}
	return core.Result{Estimate: total / float64(done), Samples: used, Converged: true}, nil
}

// budgetResult returns the best-effort mean when the budget runs out.
func budgetResult(sum float64, n, used int) core.Result {
	est := 0.0
	if n > 0 {
		est = sum / float64(n)
	}
	return core.Result{Estimate: est, Samples: used}
}
