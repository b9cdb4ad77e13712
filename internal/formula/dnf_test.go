package formula

import (
	"math"
	"testing"
)

func TestDNFNormalize(t *testing.T) {
	_, vs := boolSpace(t, 0.5, 0.5)
	x, y := vs[0], vs[1]
	d := DNF{
		MustClause(Pos(x)),
		MustClause(Pos(y), Pos(x)),
		MustClause(Pos(x)), // duplicate
	}
	n := d.Normalize()
	if len(n) != 2 {
		t.Fatalf("normalize kept %d clauses, want 2", len(n))
	}
	// Idempotence.
	if len(n.Normalize()) != 2 {
		t.Fatal("Normalize is not idempotent")
	}
}

func TestDNFTrueFalse(t *testing.T) {
	if !(DNF{}).IsFalse() {
		t.Error("empty DNF should be false")
	}
	if (DNF{}).IsTrue() {
		t.Error("empty DNF should not be true")
	}
	d := DNF{Clause{}}
	if !d.IsTrue() || d.IsFalse() {
		t.Error("DNF containing ⊤ should be true")
	}
	if BruteForceProbability(NewSpace(), DNF{}) != 0 || BruteForceProbability(NewSpace(), d) != 1 {
		t.Error("brute force must read P(false) = 0 and P(true) = 1")
	}
}

func TestRemoveSubsumed(t *testing.T) {
	_, vs := boolSpace(t, 0.5, 0.5, 0.5)
	x, y, z := vs[0], vs[1], vs[2]
	d := NewDNF(
		MustClause(Pos(x)),
		MustClause(Pos(x), Pos(y)),         // subsumed by x
		MustClause(Pos(y), Pos(z)),         // kept
		MustClause(Pos(x), Pos(y), Pos(z)), // subsumed by both
		MustClause(Neg(x), Pos(y)),         // kept (¬x not subsumed by x)
	)
	r := d.RemoveSubsumed()
	if len(r) != 3 {
		t.Fatalf("kept %d clauses, want 3: %v", len(r), r)
	}
}

func TestRemoveSubsumedPreservesProbability(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		s, d := genRandom(seed)
		before := BruteForceProbability(s, d)
		after := BruteForceProbability(s, d.RemoveSubsumed())
		if math.Abs(before-after) > 1e-12 {
			t.Fatalf("seed %d: P changed %v -> %v", seed, before, after)
		}
	}
}

func TestRemoveSubsumedWideFallback(t *testing.T) {
	// Clauses wider than the subset-enumeration cutoff exercise the
	// pairwise path.
	s := NewSpace()
	var long []Atom
	for i := 0; i < 14; i++ {
		long = append(long, Pos(s.AddBool(0.5)))
	}
	wide := MustClause(long...)
	short := MustClause(long[0])
	d := NewDNF(wide, short, MustClause(long[2], long[3]))
	r := d.RemoveSubsumed()
	if len(r) != 2 {
		t.Fatalf("kept %d clauses, want 2 (wide clause subsumed)", len(r))
	}
}

func TestDNFRestrict(t *testing.T) {
	s, vs := boolSpace(t, 0.3, 0.4, 0.5)
	x, y, z := vs[0], vs[1], vs[2]
	d := NewDNF(
		MustClause(Pos(x), Pos(y)),
		MustClause(Neg(x), Pos(z)),
		MustClause(Pos(z)),
	)
	dx := d.Restrict(x, True)
	// x=1: clauses {y}, {z}; the ¬x clause drops.
	if len(dx) != 2 {
		t.Fatalf("Restrict x=1 gave %v", dx.String(s))
	}
	// Total probability identity: P(d) = Σ_a P(x=a)·P(d|x=a).
	total := s.PTrue(x)*BruteForceProbability(s, dx) +
		(1-s.PTrue(x))*BruteForceProbability(s, d.Restrict(x, False))
	if math.Abs(total-BruteForceProbability(s, d)) > 1e-12 {
		t.Fatalf("Shannon identity violated: %v", total)
	}
}

func TestRestrictShannonIdentityRandom(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		s, d := genRandom(seed)
		if len(d) == 0 {
			continue
		}
		vars := d.Vars()
		v := vars[int(seed)%len(vars)]
		total := 0.0
		for a := 0; a < s.DomainSize(v); a++ {
			total += s.P(Atom{v, Val(a)}) * BruteForceProbability(s, d.Restrict(v, Val(a)))
		}
		want := BruteForceProbability(s, d)
		if math.Abs(total-want) > 1e-9 {
			t.Fatalf("seed %d: Shannon identity %v != %v", seed, total, want)
		}
	}
}

func TestDNFOrAnd(t *testing.T) {
	s, vs := boolSpace(t, 0.3, 0.4, 0.5, 0.6)
	w, x, y, z := vs[0], vs[1], vs[2], vs[3]
	a := NewDNF(MustClause(Pos(w)), MustClause(Pos(x)))
	b := NewDNF(MustClause(Pos(y)), MustClause(Pos(z)))

	or := a.Or(b)
	pa, pb := BruteForceProbability(s, a), BruteForceProbability(s, b)
	if got := BruteForceProbability(s, or); math.Abs(got-(1-(1-pa)*(1-pb))) > 1e-12 {
		t.Fatalf("P(a∨b) = %v", got)
	}
	and := a.And(b)
	if got := BruteForceProbability(s, and); math.Abs(got-pa*pb) > 1e-12 {
		t.Fatalf("P(a∧b) = %v", got)
	}
	// And drops inconsistent combinations.
	c := NewDNF(MustClause(Neg(w)))
	mixed := NewDNF(MustClause(Pos(w))).And(c)
	if len(mixed) != 0 {
		t.Fatalf("w ∧ ¬w should be empty, got %v", mixed)
	}
}

func TestMonotonicity(t *testing.T) {
	// Adding a clause never decreases the probability.
	for seed := int64(0); seed < 30; seed++ {
		s, d := genRandom(seed)
		if len(d) < 2 {
			continue
		}
		sub := d[:len(d)-1]
		if BruteForceProbability(s, sub) > BruteForceProbability(s, d)+1e-12 {
			t.Fatalf("seed %d: P decreased when adding a clause", seed)
		}
	}
}

func TestDNFVars(t *testing.T) {
	_, vs := boolSpace(t, 0.5, 0.5, 0.5)
	x, y, z := vs[0], vs[1], vs[2]
	d := NewDNF(MustClause(Pos(z), Pos(x)), MustClause(Pos(y)))
	vars := d.Vars()
	if len(vars) != 3 || vars[0] != x || vars[1] != y || vars[2] != z {
		t.Fatalf("Vars = %v", vars)
	}
}

// genRandom builds a small random Boolean DNF (local, to avoid an import
// cycle with internal/randdnf which imports this package).
func genRandom(seed int64) (*Space, DNF) {
	s := NewSpace()
	r := newLCG(seed)
	vars := make([]Var, 7)
	for i := range vars {
		vars[i] = s.AddBool(0.1 + 0.8*r.float())
	}
	var d DNF
	n := 2 + int(r.next()%5)
	for len(d) < n {
		w := 1 + int(r.next()%3)
		atoms := make([]Atom, 0, w)
		for len(atoms) < w {
			v := vars[r.next()%uint64(len(vars))]
			val := Val(r.next() % 2)
			atoms = append(atoms, Atom{v, val})
		}
		if c, ok := NewClause(atoms...); ok {
			d = append(d, c)
		}
	}
	return s, d.Normalize()
}

type lcg struct{ s uint64 }

func newLCG(seed int64) *lcg { return &lcg{uint64(seed)*2862933555777941757 + 3037000493} }

func (l *lcg) next() uint64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return l.s >> 11
}

func (l *lcg) float() float64 { return float64(l.next()%1000000) / 1000000.0 }
