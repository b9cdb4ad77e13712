package formula

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property-based tests of the propositional layer.

func TestQuickSubsumptionPreservesSemantics(t *testing.T) {
	f := func(seed int64) bool {
		s, d := genRandom(seed)
		return math.Abs(BruteForceProbability(s, d)-BruteForceProbability(s, d.RemoveSubsumed())) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSubsumptionMinimal(t *testing.T) {
	// After removal, no clause subsumes another.
	f := func(seed int64) bool {
		_, d := genRandom(seed)
		r := d.RemoveSubsumed()
		for i := range r {
			for j := range r {
				if i != j && r[i].Subsumes(r[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickShannonIdentity(t *testing.T) {
	f := func(seed int64, pick uint8) bool {
		s, d := genRandom(seed)
		vars := d.Vars()
		if len(vars) == 0 {
			return true
		}
		v := vars[int(pick)%len(vars)]
		total := 0.0
		for a := 0; a < s.DomainSize(v); a++ {
			total += s.P(Atom{v, Val(a)}) * BruteForceProbability(s, d.Restrict(v, Val(a)))
		}
		return math.Abs(total-BruteForceProbability(s, d)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickOrAndSemantics(t *testing.T) {
	f := func(s1, s2 int64) bool {
		sa, a := genRandom(s1)
		// Reuse the same space by regenerating b over sa's variables:
		// simpler — build b from a's clauses shuffled/subset.
		if len(a) < 2 {
			return true
		}
		b := DNF{a[0]}
		c := a[1:]
		pOr := BruteForceProbability(sa, b.Or(c))
		pAll := BruteForceProbability(sa, a)
		if math.Abs(pOr-pAll) > 1e-9 {
			return false
		}
		// And with itself is idempotent in probability.
		pAnd := BruteForceProbability(sa, a.And(a))
		_ = s2
		return math.Abs(pAnd-pAll) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickHashEqualClauses(t *testing.T) {
	f := func(seed int64) bool {
		_, d := genRandom(seed)
		for _, c := range d {
			// Rebuilding the clause from its atoms must preserve the hash.
			c2, ok := NewClause(c...)
			if !ok || c2.Hash() != c.Hash() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickNormalizeIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		_, d := genRandom(seed)
		doubled := append(DNF{}, d...)
		doubled = append(doubled, d...)
		n1 := doubled.Normalize()
		n2 := n1.Normalize()
		if len(n1) != len(d) || len(n2) != len(n1) {
			return false
		}
		for i := range n1 {
			if !n1[i].Equal(n2[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMergeCommutative(t *testing.T) {
	f := func(seed int64) bool {
		_, d := genRandom(seed)
		if len(d) < 2 {
			return true
		}
		a, b := d[0], d[1]
		m1, ok1 := a.Merge(b)
		m2, ok2 := b.Merge(a)
		if ok1 != ok2 {
			return false
		}
		return !ok1 || m1.Equal(m2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRestrictRemovesVariable(t *testing.T) {
	f := func(seed int64, pick uint8) bool {
		s, d := genRandom(seed)
		vars := d.Vars()
		if len(vars) == 0 {
			return true
		}
		v := vars[int(pick)%len(vars)]
		r := d.Restrict(v, Val(int(pick)%s.DomainSize(v)))
		for _, c := range r {
			if _, has := c.Lookup(v); has {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Fatal(err)
	}
}
