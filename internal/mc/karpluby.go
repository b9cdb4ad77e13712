// Package mc implements the randomized baselines the paper compares
// against (Section II and VII-1): the Karp-Luby unbiased estimator for
// DNF probability in the fractional variant of Vazirani's book (smaller
// variance than the zero-one estimator), the Dagum-Karp-Luby-Ross optimal
// Monte Carlo stopping algorithm that together form MayBMS's aconf().
package mc

import (
	"math/rand"
	"sort"

	"repro/internal/formula"
)

// KarpLuby is the Karp-Luby-Madras importance sampler over the clause
// cover of a DNF. Each Sample draws a clause i with probability
// P(c_i)/S (S = Σ P(c_j)), then a random world w conditioned on c_i
// being true, and returns the fractional estimate X = S / N(w) where
// N(w) is the number of clauses satisfied by w. E[X] = P(Φ).
type KarpLuby struct {
	s    *formula.Space
	d    formula.DNF
	cum  []float64 // cumulative clause probabilities
	sum  float64   // S
	vars []formula.Var
	rng  *rand.Rand

	// Dense scratch world, indexed by variable id with an epoch stamp so
	// clearing between samples is O(1).
	world []formula.Val
	stamp []uint32
	epoch uint32
}

// NewKarpLuby prepares a sampler for d. It panics if d has no clauses
// (P = 0 needs no sampling) — callers handle the trivial cases.
func NewKarpLuby(s *formula.Space, d formula.DNF, rng *rand.Rand) *KarpLuby {
	d = d.Normalize()
	if len(d) == 0 {
		panic("mc: KarpLuby on empty DNF")
	}
	k := &KarpLuby{
		s:     s,
		d:     d,
		cum:   make([]float64, len(d)),
		vars:  d.Vars(),
		rng:   rng,
		world: make([]formula.Val, s.NumVars()),
		stamp: make([]uint32, s.NumVars()),
	}
	acc := 0.0
	for i, c := range d {
		acc += c.Probability(s)
		k.cum[i] = acc
	}
	k.sum = acc
	return k
}

// Sum returns S = Σ P(c_i), the normalization constant (an upper bound on
// P(Φ) by the union bound).
func (k *KarpLuby) Sum() float64 { return k.sum }

// Sample draws one fractional Karp-Luby estimate X ∈ (0, S].
func (k *KarpLuby) Sample() float64 {
	k.draw()
	// Count satisfied clauses; at least the drawn clause is satisfied.
	n := 0
clauses:
	for _, c := range k.d {
		for _, a := range c {
			if k.world[a.Var] != a.Val {
				continue clauses
			}
		}
		n++
	}
	return k.sum / float64(n)
}

// SampleNormalized returns Sample()/S ∈ (0, 1], the form consumed by the
// DKLR stopping algorithm.
func (k *KarpLuby) SampleNormalized() float64 { return k.Sample() / k.sum }

// SampleZeroOne draws one classical Karp-Luby-Madras zero-one estimate:
// S if the sampled clause is the first (lowest-index) clause satisfied
// by the sampled world, 0 otherwise. It has the same expectation P(Φ)
// as the fractional Sample but higher variance — the paper uses the
// fractional variant for exactly that reason; both are provided so the
// variance reduction is measurable (see the tests).
func (k *KarpLuby) SampleZeroOne() float64 {
	i := k.draw()
clauses:
	for j, c := range k.d {
		if j >= i {
			break
		}
		for _, a := range c {
			if k.world[a.Var] != a.Val {
				continue clauses
			}
		}
		return 0 // an earlier clause is satisfied: not the canonical cover
	}
	return k.sum
}

// draw is one Karp-Luby trial: a clause index i drawn proportional to
// clause probability, then a world conditioned on clause i in k.world —
// its atoms fixed, the DNF's remaining variables sampled from their
// marginals. It returns i.
func (k *KarpLuby) draw() int {
	u := k.rng.Float64() * k.sum
	i := sort.SearchFloat64s(k.cum, u)
	if i >= len(k.d) {
		i = len(k.d) - 1
	}
	k.epoch++
	for _, a := range k.d[i] {
		k.world[a.Var] = a.Val
		k.stamp[a.Var] = k.epoch
	}
	for _, v := range k.vars {
		if k.stamp[v] != k.epoch {
			k.world[v] = k.sampleVal(v)
			k.stamp[v] = k.epoch
		}
	}
	return i
}

func (k *KarpLuby) sampleVal(v formula.Var) formula.Val {
	u := k.rng.Float64()
	acc := 0.0
	n := k.s.DomainSize(v)
	for a := 0; a < n-1; a++ {
		acc += k.s.P(formula.Atom{Var: v, Val: formula.Val(a)})
		if u < acc {
			return formula.Val(a)
		}
	}
	return formula.Val(n - 1)
}

// Mean returns the average of n fresh samples — the plain fixed-sample
// Karp-Luby estimator.
func (k *KarpLuby) Mean(n int) float64 {
	total := 0.0
	for i := 0; i < n; i++ {
		total += k.Sample()
	}
	return total / float64(n)
}
