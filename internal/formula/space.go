// Package formula implements propositional formulas over independent
// discrete random variables, as defined in Section III of the paper.
//
// A Space holds a finite set of independent random variables, each with a
// finite domain and a probability distribution over that domain. Atomic
// events are equalities "x = a"; clauses are consistent conjunctions of
// atomic events; DNFs are disjunctions of clauses. The probability of a
// formula is the total probability of the valuations (possible worlds) on
// which it is true.
//
// # Space layout
//
// A loaded database is mostly its space, so a Space keeps no object per
// variable. Every distribution lives in one []float64, back to back in
// variable order (a Boolean x stores 1−p, p), and an []int32 of offsets
// says where each starts, with one extra entry ending the last; P,
// PTrue and DomainSize read these two arrays. Tags are one []int32
// beside them, and NumVars is its length.
//
// Names are formatted on demand, not stored per variable. A relation
// constructor names its variables by rule with NameRun: one run per
// relation (per stretch of non-empty blocks for BID tables) holds the
// first variable, the count, the index of the first element and a
// prefix, so variable first+i is named prefix + (start+i), e.g.
// "lineitem#17" or "orders/blk4". SetName stores an explicit name in a
// sparse map allocated on first use; it wins over a run. A variable with
// neither is "x<id>".
//
// Concurrency: variables are added, tagged and named before queries read
// the space. Once built, a Space is read-only and safe for concurrent
// readers; adding a variable while another goroutine reads is a race.
package formula

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
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
// use. Its layout is in the package doc.
type Space struct {
	probs []float64      // P(v = a) = probs[offs[v]+a]
	offs  []int32        // offs[v] starts v's distribution; one extra entry ends the last
	tags  []int32        // relation tag per variable, NoTag if none
	runs  []nameRun      // rule-named stretches of variables, in variable order
	names map[Var]string // explicit names (SetName), allocated on first use
}

// nameRun names the n variables first, first+1, … by rule: variable
// first+i is prefix followed by the decimal start+i.
type nameRun struct {
	first  Var
	n      int32
	start  int
	prefix string
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
	if len(s.probs)+len(dist) > math.MaxInt32 {
		panic("formula: space holds more than 2^31-1 probabilities")
	}
	if len(s.offs) == 0 {
		s.offs = append(s.offs, 0)
	}
	v := Var(len(s.offs) - 1)
	s.probs = append(s.probs, dist...)
	s.offs = append(s.offs, int32(len(s.probs)))
	s.tags = append(s.tags, NoTag)
	return v
}

// Grow reserves room for vars more variables whose distributions hold
// probs entries in total, so that adding them allocates nothing.
func (s *Space) Grow(vars, probs int) {
	s.probs = slices.Grow(s.probs, probs)
	s.offs = slices.Grow(s.offs, vars+1)
	s.tags = slices.Grow(s.tags, vars)
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
// the text format of cmd/dtree). It overrides a name v has by rule
// (NameRun); the empty name restores the "x<id>" default.
func (s *Space) SetName(v Var, name string) {
	s.mustHave(v, 1)
	if s.names == nil {
		s.names = make(map[Var]string)
	}
	s.names[v] = name
}

// NameRun names the n variables first, first+1, … by rule: variable
// first+i is named prefix followed by the decimal start+i, formatted
// when Name asks for it. Runs are recorded in variable order and do not
// overlap; a relation constructor records one per relation.
func (s *Space) NameRun(first Var, n int, prefix string, start int) {
	if n <= 0 {
		return
	}
	s.mustHave(first, n)
	if k := len(s.runs); k > 0 && first < s.runs[k-1].first+Var(s.runs[k-1].n) {
		panic("formula: NameRun out of variable order")
	}
	s.runs = append(s.runs, nameRun{first: first, n: int32(n), start: start, prefix: prefix})
}

// mustHave panics unless the n variables v, v+1, … are in the space.
func (s *Space) mustHave(v Var, n int) {
	if v < 0 || int(v)+n > s.NumVars() {
		panic(fmt.Sprintf("formula: variables %d..%d not in a space of %d", v, int(v)+n-1, s.NumVars()))
	}
}

// Name returns v's explicit name (SetName), else its name by rule
// (NameRun), else a generated "x<id>" default.
func (s *Space) Name(v Var) string {
	name, explicit := s.names[v]
	if !explicit {
		// The last run starting at or before v names it if v falls inside.
		i := sort.Search(len(s.runs), func(i int) bool { return s.runs[i].first > v }) - 1
		if i >= 0 && v-s.runs[i].first < Var(s.runs[i].n) {
			r := &s.runs[i]
			name = r.prefix + strconv.Itoa(r.start+int(v-r.first))
		}
	}
	if name == "" {
		return "x" + strconv.Itoa(int(v))
	}
	return name
}

// NumVars returns the number of variables in the space.
func (s *Space) NumVars() int { return len(s.tags) }

// DomainSize returns the number of domain values of v.
func (s *Space) DomainSize(v Var) int { return int(s.offs[v+1] - s.offs[v]) }

// Tag returns the relation tag of v, or NoTag.
func (s *Space) Tag(v Var) int32 { return s.tags[v] }

// P returns the probability of the atomic event a, whose value must lie
// in its variable's domain (0 ≤ a.Val < DomainSize(a.Var)). P does not
// check it: it sits in the bounds' inner loops, and every atom a
// relation constructor or the dnftext parser makes is in its domain.
func (s *Space) P(a Atom) float64 { return s.probs[s.offs[a.Var]+int32(a.Val)] }

// PTrue returns P(x = true) for a Boolean variable.
func (s *Space) PTrue(x Var) float64 { return s.P(Pos(x)) }
