package formula

import (
	"sort"
	"strings"
)

// Clause is a conjunction of atomic events, kept sorted by variable id with
// no duplicate variables. A clause built by NewClause is always consistent:
// it never contains two atomic events x = a and x = b with a != b.
//
// The empty clause is the formula "true" (probability 1).
type Clause []Atom

// NewClause builds a normalized clause from atoms. It returns ok = false if
// the atoms are inconsistent (same variable, different values). Duplicate
// atoms are removed.
func NewClause(atoms ...Atom) (Clause, bool) {
	c := make(Clause, len(atoms))
	copy(c, atoms)
	sort.Slice(c, func(i, j int) bool {
		if c[i].Var != c[j].Var {
			return c[i].Var < c[j].Var
		}
		return c[i].Val < c[j].Val
	})
	out := c[:0]
	for i, a := range c {
		if i > 0 && a.Var == out[len(out)-1].Var {
			if a.Val != out[len(out)-1].Val {
				return nil, false
			}
			continue // duplicate atom
		}
		out = append(out, a)
	}
	return out, true
}

// MustClause is NewClause for inputs known to be consistent; it panics on
// inconsistency. Intended for tests and literals.
func MustClause(atoms ...Atom) Clause {
	c, ok := NewClause(atoms...)
	if !ok {
		panic("formula: inconsistent clause")
	}
	return c
}

// Probability returns the product of the atom probabilities (the clause
// probability under variable independence). The empty clause has
// probability 1.
func (c Clause) Probability(s *Space) float64 {
	p := 1.0
	for _, a := range c {
		p *= s.P(a)
	}
	return p
}

// Lookup returns the value c assigns to v and whether v occurs in c.
// Clauses are sorted, so this is a binary search.
func (c Clause) Lookup(v Var) (Val, bool) {
	lo, hi := 0, len(c)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case c[mid].Var < v:
			lo = mid + 1
		case c[mid].Var > v:
			hi = mid
		default:
			return c[mid].Val, true
		}
	}
	return 0, false
}

// Subsumes reports whether c is a subset of d (then c ∨ d ≡ c, so d is
// redundant in any DNF containing c).
func (c Clause) Subsumes(d Clause) bool {
	if len(c) > len(d) {
		return false
	}
	i, j := 0, 0
	for i < len(c) && j < len(d) {
		switch {
		case c[i].Var > d[j].Var:
			j++
		case c[i].Var < d[j].Var:
			return false
		default:
			if c[i].Val != d[j].Val {
				return false
			}
			i++
			j++
		}
	}
	return i == len(c)
}

// Restrict returns c with any atom on v removed, and ok = false if c is
// inconsistent with v = a (c contains v = b, b != a). This implements the
// clause-level step of Shannon expansion Φ|x=a.
func (c Clause) Restrict(v Var, a Val) (Clause, bool) {
	val, ok := c.Lookup(v)
	if !ok {
		return c, true
	}
	if val != a {
		return nil, false
	}
	out := make(Clause, 0, len(c)-1)
	for _, at := range c {
		if at.Var != v {
			out = append(out, at)
		}
	}
	return out, true
}

// Merge returns the conjunction c ∧ d as a clause, with ok = false if they
// are inconsistent. Used by joins to combine lineage.
func (c Clause) Merge(d Clause) (Clause, bool) {
	return appendMerge(make(Clause, 0, len(c)+len(d)), c, d)
}

// appendMerge appends the conjunction c ∧ d to out.
func appendMerge(out, c, d Clause) (Clause, bool) {
	i, j := 0, 0
	for i < len(c) && j < len(d) {
		switch {
		case c[i].Var < d[j].Var:
			out = append(out, c[i])
			i++
		case c[i].Var > d[j].Var:
			out = append(out, d[j])
			j++
		default:
			if c[i].Val != d[j].Val {
				return nil, false
			}
			out = append(out, c[i])
			i++
			j++
		}
	}
	out = append(out, c[i:]...)
	out = append(out, d[j:]...)
	return out, true
}

// Equal reports whether c and d are the same clause.
func (c Clause) Equal(d Clause) bool {
	if len(c) != len(d) {
		return false
	}
	for i := range c {
		if c[i] != d[i] {
			return false
		}
	}
	return true
}

// Key returns a compact string key identifying the clause, for use in
// hash-based deduplication and subset enumeration.
func (c Clause) Key() string {
	var b strings.Builder
	b.Grow(len(c) * 8)
	for _, a := range c {
		b.WriteByte(byte(a.Var))
		b.WriteByte(byte(a.Var >> 8))
		b.WriteByte(byte(a.Var >> 16))
		b.WriteByte(byte(a.Var >> 24))
		b.WriteByte(byte(a.Val))
		b.WriteByte(byte(a.Val >> 8))
		b.WriteByte(byte(a.Val >> 16))
		b.WriteByte(byte(a.Val >> 24))
	}
	return b.String()
}

// String renders the clause using the variable names of s, e.g.
// "x=1 ∧ y=0". Boolean variables render as "x" and "¬x".
func (c Clause) String(s *Space) string {
	if len(c) == 0 {
		return "⊤"
	}
	parts := make([]string, len(c))
	for i, a := range c {
		parts[i] = atomString(s, a)
	}
	return strings.Join(parts, " ∧ ")
}

func atomString(s *Space, a Atom) string {
	name := s.Name(a.Var)
	if s.DomainSize(a.Var) == 2 {
		if a.Val == True {
			return name
		}
		return "¬" + name
	}
	return name + "=" + itoa(int(a.Val))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
