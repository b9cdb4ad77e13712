// Package formula implements propositional formulas over independent
// discrete random variables, as defined in Section III of the paper.
//
// A Space holds a finite set of independent random variables, each with a
// finite domain and a probability distribution over that domain. Atomic
// events are equalities "x = a"; clauses are consistent conjunctions of
// atomic events; DNFs are disjunctions of clauses. The probability of a
// formula is the total probability of the valuations (possible worlds) on
// which it is true.
package formula

import (
	"fmt"
	"math"
)

// Var identifies a random variable within a Space.
type Var int32

// Val is a domain value of a random variable. Boolean variables use the
// convention Val 1 for true and Val 0 for false.
type Val int32

// Boolean domain values.
const (
	False Val = 0
	True  Val = 1
)

// NoTag marks a variable that does not belong to any relation.
const NoTag int32 = -1

// Atom is an atomic event "Var = Val".
type Atom struct {
	Var Var
	Val Val
}

// Pos returns the atomic event x = true for a Boolean variable.
func Pos(x Var) Atom { return Atom{x, True} }

// Neg returns the atomic event x = false for a Boolean variable.
func Neg(x Var) Atom { return Atom{x, False} }

// Space is a finite probability distribution defined by independent random
// variables with finite domains. The zero value is an empty space ready to
// use.
type Space struct {
	dists [][]float64 // dists[v][a] = P(v = a)
	tags  []int32     // relation tag per variable, NoTag if none
	names []string    // optional human-readable names
}

// NewSpace returns an empty probability space.
func NewSpace() *Space { return &Space{} }

// AddVar adds a random variable with the given distribution over domain
// values 0..len(dist)-1. The distribution entries must be in (0,1] and sum
// to 1 (within floating-point tolerance); AddVar panics otherwise since a
// malformed space makes every downstream probability meaningless.
func (s *Space) AddVar(dist ...float64) Var {
	if len(dist) == 0 {
		panic("formula: AddVar requires a non-empty distribution")
	}
	sum := 0.0
	for _, p := range dist {
		if p <= 0 || p > 1 || math.IsNaN(p) {
			panic(fmt.Sprintf("formula: atomic-event probability %v outside (0,1]", p))
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		panic(fmt.Sprintf("formula: distribution sums to %v, want 1", sum))
	}
	v := Var(len(s.dists))
	d := make([]float64, len(dist))
	copy(d, dist)
	s.dists = append(s.dists, d)
	s.tags = append(s.tags, NoTag)
	s.names = append(s.names, "")
	return v
}

// AddBool adds a Boolean variable x with P(x = true) = p, 0 < p < 1.
func (s *Space) AddBool(p float64) Var {
	return s.AddVar(1-p, p)
}

// AddBoolTagged adds a Boolean variable annotated with a relation tag.
// Tags drive independent-and factorization and the IQ variable-elimination
// order in the d-tree compiler.
func (s *Space) AddBoolTagged(p float64, tag int32) Var {
	v := s.AddBool(p)
	s.tags[v] = tag
	return v
}

// AddVarTagged adds a discrete variable annotated with a relation tag.
func (s *Space) AddVarTagged(tag int32, dist ...float64) Var {
	v := s.AddVar(dist...)
	s.tags[v] = tag
	return v
}

// SetName attaches a human-readable name to v (used by String methods and
// the text format of cmd/dtree).
func (s *Space) SetName(v Var, name string) { s.names[v] = name }

// Name returns the name attached to v, or a generated "x<id>" default.
func (s *Space) Name(v Var) string {
	if int(v) < len(s.names) && s.names[v] != "" {
		return s.names[v]
	}
	return fmt.Sprintf("x%d", v)
}

// NumVars returns the number of variables in the space.
func (s *Space) NumVars() int { return len(s.dists) }

// DomainSize returns the number of domain values of v.
func (s *Space) DomainSize(v Var) int { return len(s.dists[v]) }

// Tag returns the relation tag of v, or NoTag.
func (s *Space) Tag(v Var) int32 { return s.tags[v] }

// P returns the probability of the atomic event a.
func (s *Space) P(a Atom) float64 { return s.dists[a.Var][a.Val] }

// PTrue returns P(x = true) for a Boolean variable.
func (s *Space) PTrue(x Var) float64 { return s.dists[x][True] }
