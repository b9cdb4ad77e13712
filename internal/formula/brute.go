package formula

// BruteForceProbability computes P(d) by enumerating every valuation of
// the variables occurring in d and summing the probabilities of the
// valuations on which d is true. It is exponential in the number of
// distinct variables and exists as the test oracle for every other
// probability-computation algorithm in this repository.
func BruteForceProbability(s *Space, d DNF) float64 {
	if d.IsFalse() {
		return 0
	}
	if d.IsTrue() {
		return 1
	}
	vars := d.Vars()
	assign := make(map[Var]Val, len(vars))
	var rec func(i int, p float64) float64
	rec = func(i int, p float64) float64 {
		if i == len(vars) {
			if evalDNF(d, assign) {
				return p
			}
			return 0
		}
		v := vars[i]
		total := 0.0
		for a := 0; a < s.DomainSize(v); a++ {
			assign[v] = Val(a)
			total += rec(i+1, p*s.P(Atom{v, Val(a)}))
		}
		delete(assign, v)
		return total
	}
	return rec(0, 1)
}

func evalDNF(d DNF, assign map[Var]Val) bool {
	for _, c := range d {
		if evalClause(c, assign) {
			return true
		}
	}
	return false
}

func evalClause(c Clause, assign map[Var]Val) bool {
	for _, a := range c {
		if assign[a.Var] != a.Val {
			return false
		}
	}
	return true
}

// EvaluateWorld reports whether d is true under the given complete (or
// partial-with-default-0) valuation. Only tests call it; the Monte
// Carlo estimators (internal/mc) do not.
func EvaluateWorld(d DNF, assign map[Var]Val) bool { return evalDNF(d, assign) }

// EvaluateClause reports whether c is true under the valuation.
func EvaluateClause(c Clause, assign map[Var]Val) bool { return evalClause(c, assign) }
