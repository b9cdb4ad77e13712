package formula

import "math/rand"

// SampleWorld draws a complete valuation of all variables of the space
// from their (independent) distributions — one possible world. The
// possible-worlds tests use it to cross-check lineage-based confidence
// against direct evaluation of queries on sampled deterministic
// databases; the Monte Carlo estimators (internal/mc) sample on their
// own and do not call it.
func SampleWorld(s *Space, rng *rand.Rand) map[Var]Val {
	world := make(map[Var]Val, s.NumVars())
	for v := 0; v < s.NumVars(); v++ {
		u := rng.Float64()
		acc := 0.0
		n := s.DomainSize(Var(v))
		val := Val(n - 1)
		for a := 0; a < n-1; a++ {
			acc += s.P(Atom{Var(v), Val(a)})
			if u < acc {
				val = Val(a)
				break
			}
		}
		world[Var(v)] = val
	}
	return world
}
