package formula

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestSpaceAddVar(t *testing.T) {
	s := NewSpace()
	v := s.AddVar(0.2, 0.3, 0.5)
	if s.NumVars() != 1 || s.DomainSize(v) != 3 {
		t.Fatalf("NumVars=%d DomainSize=%d", s.NumVars(), s.DomainSize(v))
	}
	if got := s.P(Atom{v, 1}); got != 0.3 {
		t.Fatalf("P(v=1) = %v", got)
	}
}

func TestSpaceAddBool(t *testing.T) {
	s := NewSpace()
	x := s.AddBool(0.3)
	if !close(s.PTrue(x), 0.3) || !close(s.P(Neg(x)), 0.7) {
		t.Fatalf("PTrue=%v PFalse=%v", s.PTrue(x), s.P(Neg(x)))
	}
}

func TestSpacePanicsOnBadDistribution(t *testing.T) {
	cases := [][]float64{
		{},
		{0.5, 0.6},    // sums to 1.1
		{1.0, 0.0},    // zero-probability atomic event
		{-0.1, 1.1},   // negative
		{0.2, 0.3},    // sums to 0.5
		{math.NaN()},  // NaN
		{0.5, 0.5, 1}, // sums to 2
	}
	for i, dist := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: AddVar(%v) did not panic", i, dist)
				}
			}()
			NewSpace().AddVar(dist...)
		}()
	}
}

func TestSpaceTags(t *testing.T) {
	s := NewSpace()
	a := s.AddBool(0.5)
	b := s.AddBoolTagged(0.5, 7)
	c := s.AddVarTagged(3, 0.5, 0.5)
	if s.Tag(a) != NoTag || s.Tag(b) != 7 || s.Tag(c) != 3 {
		t.Fatalf("tags: %d %d %d", s.Tag(a), s.Tag(b), s.Tag(c))
	}
}

func TestSpaceNames(t *testing.T) {
	s := NewSpace()
	x := s.AddBool(0.5)
	y := s.AddBool(0.5)
	s.SetName(x, "edge1")
	if s.Name(x) != "edge1" {
		t.Fatalf("Name = %q", s.Name(x))
	}
	if s.Name(y) != "x1" {
		t.Fatalf("default Name = %q", s.Name(y))
	}
}

func TestBruteForceKnown(t *testing.T) {
	// P((x ∨ y) for independent booleans) = 1 − (1−px)(1−py).
	s, vs := boolSpace(t, 0.3, 0.2)
	x, y := vs[0], vs[1]
	d := NewDNF(MustClause(Pos(x)), MustClause(Pos(y)))
	if got := BruteForceProbability(s, d); !close(got, 1-0.7*0.8) {
		t.Fatalf("P = %v", got)
	}
	// Example 5.2 of the paper: exact probability 0.8456.
	s2 := NewSpace()
	X, Y, Z, V := s2.AddBool(0.3), s2.AddBool(0.2), s2.AddBool(0.7), s2.AddBool(0.8)
	phi := NewDNF(
		MustClause(Pos(X), Pos(Y)),
		MustClause(Pos(X), Pos(Z)),
		MustClause(Pos(V)),
	)
	if got := BruteForceProbability(s2, phi); math.Abs(got-0.8456) > 1e-12 {
		t.Fatalf("Example 5.2 exact = %v, want 0.8456", got)
	}
}

func TestBruteForceComplement(t *testing.T) {
	// Probability of x=a events over a full domain partition sums to 1.
	s := NewSpace()
	v := s.AddVar(0.1, 0.2, 0.3, 0.4)
	total := 0.0
	for a := 0; a < 4; a++ {
		total += BruteForceProbability(s, NewDNF(MustClause(Atom{v, Val(a)})))
	}
	if !close(total, 1) {
		t.Fatalf("partition sums to %v", total)
	}
}

func TestBruteForceProbabilityInUnitInterval(t *testing.T) {
	f := func(seed int64) bool {
		s, d := genRandom(seed)
		p := BruteForceProbability(s, d)
		// Allow float accumulation slop at the boundaries.
		return p >= -1e-12 && p <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateWorld(t *testing.T) {
	_, vs := boolSpace(t, 0.5, 0.5)
	x, y := vs[0], vs[1]
	d := NewDNF(MustClause(Pos(x), Neg(y)))
	if !EvaluateWorld(d, map[Var]Val{x: True, y: False}) {
		t.Error("world x=1,y=0 should satisfy")
	}
	if EvaluateWorld(d, map[Var]Val{x: True, y: True}) {
		t.Error("world x=1,y=1 should not satisfy")
	}
}

// TestSpaceNameRuns: a name by rule is formatted from its run, an
// explicit name wins over it, the empty explicit name restores the
// default, and variables outside every run keep "x<id>".
func TestSpaceNameRuns(t *testing.T) {
	s := NewSpace()
	for i := 0; i < 7; i++ {
		s.AddBool(0.5)
	}
	s.NameRun(1, 3, "r#", 0)
	s.NameRun(4, 2, "b/blk", 5)
	s.SetName(2, "mine")
	s.SetName(5, "")
	want := []string{"x0", "r#0", "mine", "r#2", "b/blk5", "x5", "x6"}
	for v, w := range want {
		if got := s.Name(Var(v)); got != w {
			t.Errorf("Name(%d) = %q, want %q", v, got, w)
		}
	}
	for _, bad := range []func(){
		func() { s.NameRun(6, 2, "p", 0) }, // past the last variable
		func() { s.NameRun(3, 1, "p", 0) }, // before the last run's end
		func() { s.SetName(7, "p") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad naming did not panic")
				}
			}()
			bad()
		}()
	}
}

// TestSpaceDomainAndBits: the flat layout stores each distribution as
// given — a Boolean as 1−p, p — with every domain size intact.
func TestSpaceDomainAndBits(t *testing.T) {
	var s Space // the zero value is usable
	x := s.AddBool(0.3)
	y := s.AddVar(0.2, 0.3, 0.5)
	z := s.AddVar(1)
	if s.NumVars() != 3 || s.DomainSize(x) != 2 || s.DomainSize(y) != 3 || s.DomainSize(z) != 1 {
		t.Fatalf("NumVars=%d domains %d %d %d", s.NumVars(), s.DomainSize(x), s.DomainSize(y), s.DomainSize(z))
	}
	if math.Float64bits(s.P(Neg(x))) != math.Float64bits(1-0.3) || s.PTrue(x) != 0.3 ||
		s.P(Atom{y, 0}) != 0.2 || s.P(Atom{y, 2}) != 0.5 || s.P(Atom{z, 0}) != 1 {
		t.Fatal("probabilities moved")
	}
}

// TestSpaceAddBoolBytes pins the flat layout's cost: a Boolean variable
// holds two float64s, an offset and a tag, so the live heap per AddBool,
// amortised over 100 000 variables with append's slack, stays at most
// 32 bytes (a slice per distribution, its header and an empty name
// string took about 66).
func TestSpaceAddBoolBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is inflated under -race")
	}
	const n = 100_000
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	s := NewSpace()
	for i := 0; i < n; i++ {
		s.AddBool(0.5)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	per := float64(int64(ms.HeapAlloc)-int64(before)) / n
	runtime.KeepAlive(s)
	if per > 32 {
		t.Fatalf("%.1f live heap bytes per AddBool, want ≤ 32", per)
	}
	t.Logf("%.1f live heap bytes per AddBool", per)
}
