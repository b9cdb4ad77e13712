package core

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/formula"
	"repro/internal/randdnf"
)

// example52 builds the DNF of Example 5.2:
// Φ = (x∧y) ∨ (x∧z) ∨ v with P(x)=.3, P(y)=.2, P(z)=.7, P(v)=.8.
func example52() (*formula.Space, formula.DNF) {
	s := formula.NewSpace()
	x, y, z, v := s.AddBool(0.3), s.AddBool(0.2), s.AddBool(0.7), s.AddBool(0.8)
	d := formula.NewDNF(
		formula.MustClause(formula.Pos(x), formula.Pos(y)),
		formula.MustClause(formula.Pos(x), formula.Pos(z)),
		formula.MustClause(formula.Pos(v)),
	)
	return s, d
}

func TestExample52Unsorted(t *testing.T) {
	// Without probability sorting, Figure 3's greedy partitioning
	// starting from c1 yields B1 = c1 ∨ c3 and B2 = c2 with bounds
	// [0.812, 1], exactly as in the first partitioning of Example 5.2.
	// LeafBounds always sorts (TestExample52Sorted), so this is the
	// Figure 3 oracle's unsorted value.
	s, d := example52()
	if lo, hi := fig3Bounds(s, d, false); math.Abs(lo-0.812) > 1e-12 || hi != 1 {
		t.Fatalf("Figure 3 = [%v, %v], want [0.812, 1] (0.812+0.21 > 1 clamps)", lo, hi)
	}
}

// checkExample52Hi: on Example 5.2 the star cover is exact. x is the
// hub of x∧y and x∧z, v its own, so hi = 0.3·(1 − 0.8·0.3) ⊕ 0.8 =
// 0.8456 = P, against the Harris 1 − 0.94·0.79·0.2 = 0.85148. hi must
// equal the rational P within the leaf budget.
func checkExample52Hi(t *testing.T, s *formula.Space, d formula.DNF, hi float64) {
	t.Helper()
	p := ratProb(s, d)
	if pf, _ := p.Float64(); math.Abs(pf-0.8456) > 1e-12 {
		t.Fatalf("exact P = %v, want 0.8456", pf)
	}
	diff := new(big.Rat).Sub(new(big.Rat).SetFloat64(hi), p)
	slack := new(big.Rat).Mul(p, leafBudget(d))
	if diff.Abs(diff).Cmp(slack) > 0 {
		t.Fatalf("hi = %v, want the exact P = %v within %v", hi, p.FloatString(20), slack.FloatString(20))
	}
}

func TestExample52Sorted(t *testing.T) {
	// With descending-probability sorting, B1 = c3 ∨ c2 (P = 0.842) and
	// B2 = c1 (P = 0.06), giving lower bound 0.842 as in the paper. The
	// paper states the upper bound as 0.848, but Figure 3 defines it as
	// min(1, ΣP(Bi)) = min(1, 0.842+0.06) = 0.902. LeafBounds keeps the
	// lower bound and tightens hi to the star cover's exact 0.8456.
	s, d := example52()
	if lo, hi := fig3Bounds(s, d, true); math.Abs(lo-0.842) > 1e-12 || math.Abs(hi-0.902) > 1e-12 {
		t.Fatalf("Figure 3 = [%v, %v], want [0.842, 0.902]", lo, hi)
	}
	lo, hi := LeafBounds(s, d)
	if math.Abs(lo-0.842) > 1e-12 {
		t.Fatalf("LeafBounds lo = %v, want 0.842", lo)
	}
	checkExample52Hi(t, s, d, hi)
}

func TestLeafBoundsSingleBucketExact(t *testing.T) {
	// All clauses pairwise independent -> one bucket -> exact bounds.
	s := formula.NewSpace()
	var d formula.DNF
	q := 1.0
	for i := 0; i < 5; i++ {
		p := 0.1 + 0.15*float64(i)
		d = append(d, formula.MustClause(formula.Pos(s.AddBool(p))))
		q *= 1 - p
	}
	lo, hi := LeafBounds(s, d)
	if lo != hi {
		t.Fatalf("single bucket should be exact: [%v, %v]", lo, hi)
	}
	if math.Abs(lo-(1-q)) > 1e-12 {
		t.Fatalf("P = %v, want %v", lo, 1-q)
	}
}

func TestLeafBoundsEdgeCases(t *testing.T) {
	s := formula.NewSpace()
	x := s.AddBool(0.25)
	if lo, hi := LeafBounds(s, formula.DNF{}); lo != 0 || hi != 0 {
		t.Fatalf("false: [%v,%v]", lo, hi)
	}
	if lo, hi := LeafBounds(s, formula.DNF{formula.Clause{}}); lo != 1 || hi != 1 {
		t.Fatalf("true: [%v,%v]", lo, hi)
	}
	single := formula.NewDNF(formula.MustClause(formula.Pos(x)))
	if lo, hi := LeafBounds(s, single); lo != 0.25 || hi != 0.25 {
		t.Fatalf("singleton: [%v,%v]", lo, hi)
	}
}

// TestLeafBoundsContainRationalOracle: every leaf bound holds the
// exact rational P within LeafBounds' floating-point budget, positive
// leaves never bound looser than Figure 3 and the others are Figure 3
// bit for bit (checkLeafBounds). The corpora: random DNFs, Boolean and
// three-valued; small atom probabilities with clauses up to 8 wide;
// atom probabilities near 1; block-disjoint leaves of three-valued
// variables; and as named rows the R(x) S(x,y) T(y) grids at p = 1e-5,
// where a bucket computed as 1 − Π(1 − p) cancelled below P, a leaf
// whose star cover breaks a hub tie, and the BID counterexample, whose
// Harris bound is below P, so that only the positivity check keeps it
// off the leaf.
func TestLeafBoundsContainRationalOracle(t *testing.T) {
	sc := new(prepScratch)
	s, d := example52()
	checkLeafBounds(t, "Example 5.2", s, d, sc)
	for _, side := range []int{3, 4} {
		s, d := tinyGrid(side, 1e-5)
		checkLeafBounds(t, fmt.Sprintf("%d×%d grid at p = 1e-5", side, side), s, d, sc)
	}
	s, d = hubTie()
	checkLeafBounds(t, "hub tie", s, d, sc)
	s, d = bidCounterexample()
	checkLeafBounds(t, "BID counterexample", s, d, sc)
	harris := refHarris(s, d)
	if p, _ := ratProb(s, d).Float64(); math.Abs(p-0.999) > 1e-12 || harris >= p {
		t.Fatalf("BID counterexample: P = %v, Harris %v; want 0.999 above the Harris bound", p, harris)
	}

	for seed := int64(0); seed < 80; seed++ {
		cfg := randdnf.Default()
		cfg.Clauses = 8
		if seed%2 == 0 {
			cfg.MaxDomain = 3
		}
		s, d := randdnf.Generate(cfg, seed)
		checkLeafBounds(t, fmt.Sprintf("randdnf seed %d", seed), s, d, sc)
	}
	rng := rand.New(rand.NewSource(17))
	small := func() float64 { return math.Pow(10, -9+6*rng.Float64()) }
	near1 := func() float64 { return 1 - math.Pow(10, -9+6*rng.Float64()) }
	for i := 0; i < 60; i++ {
		neg := []float64{0, 0.2}[i%2] // every other corpus is not positive
		s, d := randLeaf(rng, 20, 7+rng.Intn(10), 8, 2, small, neg)
		checkLeafBounds(t, fmt.Sprintf("small-p %d", i), s, d, sc)
		s, d = randLeaf(rng, 16, 7+rng.Intn(10), 4, 2, near1, neg)
		checkLeafBounds(t, fmt.Sprintf("near-1 %d", i), s, d, sc)
		s, d = randLeaf(rng, 10, 7+rng.Intn(10), 3, 3, nil, 0)
		checkLeafBounds(t, fmt.Sprintf("BID %d", i), s, d, sc)
	}
}

// FuzzLeafBoundsContainOracle is checkLeafBounds over byte-decoded
// leaves of up to 16 variables and 24 clauses (decodeLeafDNF), on one
// scratch whose counter is set, before each input, a few epochs short
// of the wrap at a distance taken from the input. The seed corpus under
// testdata/fuzz holds the BID counterexample, whose Harris bound is
// 0.960 against P = 0.999, hubTie's leaf, and the 3×3 grid at
// p = 168/(2²⁴ + 168) ≈ 1.0e-5.
func FuzzLeafBoundsContainOracle(f *testing.F) {
	sc := new(prepScratch)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, d := decodeLeafDNF(data)
		nearWrap(sc, wrapDistance(data))
		checkLeafBounds(t, "fuzz", s, d, sc)
	})
}

// decodeLeafDNF reads: a variable count (1–16), per variable a domain
// byte b (2 + b%2 values, value 0's weight scaled by 256^((b/2)%4), so
// that an atom can be as unlikely as 2⁻²⁴) and one weight byte per
// value (weight 1 + b, renormalized), then up to 24 clauses, each a
// width byte (1–4 atoms) followed by (variable, value) pairs.
// Inconsistent clauses are dropped. Missing bytes read 0.
func decodeLeafDNF(data []byte) (*formula.Space, formula.DNF) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	nvars := 1 + next()%16
	s := formula.NewSpace()
	for i := 0; i < nvars; i++ {
		b := next()
		dist := make([]float64, 2+b%2)
		scale := math.Ldexp(1, 8*((b/2)%4))
		sum := 0.0
		for a := range dist {
			dist[a] = float64(1 + next())
			if a == 0 {
				dist[a] *= scale
			}
			sum += dist[a]
		}
		for a := range dist {
			dist[a] /= sum
		}
		s.AddVar(dist...)
	}
	var d formula.DNF
	for len(data) > 0 && len(d) < 24 {
		atoms := make([]formula.Atom, 1+next()%4)
		for i := range atoms {
			v := formula.Var(next() % nvars)
			atoms[i] = formula.Atom{Var: v, Val: formula.Val(next() % s.DomainSize(v))}
		}
		if c, ok := formula.NewClause(atoms...); ok {
			d = append(d, c)
		}
	}
	return s, d
}

// tinyGrid is the R(x) S(x,y) T(y) lineage grid: clause xᵢ ∧ sᵢⱼ ∧ yⱼ
// for every cell of a side×side grid, every variable at probability p.
func tinyGrid(side int, p float64) (*formula.Space, formula.DNF) {
	s := formula.NewSpace()
	xs, ys := make([]formula.Var, side), make([]formula.Var, side)
	for i := range xs {
		xs[i], ys[i] = s.AddBool(p), s.AddBool(p)
	}
	var d formula.DNF
	for _, x := range xs {
		for _, y := range ys {
			d = append(d, formula.MustClause(formula.Pos(x), formula.Pos(s.AddBool(p)), formula.Pos(y)))
		}
	}
	return s, d
}

// hubTie is (a ∧ b) ∨ (a ∧ c) ∨ (b ∧ d): a and b occur twice each, so
// the star cover puts a ∧ b under a, the smaller id, and bounds P =
// 0.298 by 0.3052 (Harris: 0.33166). Under b it would read 0.3127.
func hubTie() (*formula.Space, formula.DNF) {
	s := formula.NewSpace()
	a, b, c, d := s.AddBool(0.3), s.AddBool(0.2), s.AddBool(0.7), s.AddBool(0.5)
	return s, formula.NewDNF(
		formula.MustClause(formula.Pos(a), formula.Pos(b)),
		formula.MustClause(formula.Pos(a), formula.Pos(c)),
		formula.MustClause(formula.Pos(b), formula.Pos(d)),
	)
}

// bidCounterexample is nine clauses (x = a ∧ yⱼ): x three-valued at 1/3
// each, y₁…y₃ Boolean at 0.9. P = 0.999, but a leaf taken for positive
// would get the Harris hi 1 − 0.7⁹ ≈ 0.960.
func bidCounterexample() (*formula.Space, formula.DNF) {
	s := formula.NewSpace()
	x := s.AddVar(1.0/3, 1.0/3, 1.0/3)
	var d formula.DNF
	for j := 0; j < 3; j++ {
		y := s.AddBool(0.9)
		for a := formula.Val(0); a < 3; a++ {
			d = append(d, formula.MustClause(formula.Atom{Var: x, Val: a}, formula.Pos(y)))
		}
	}
	return s, d
}

// randLeaf is a random leaf of n clauses, 1 to width atoms each, over nv
// variables. Booleans (dom 2) are true with probability p() and occur
// negated with probability neg; larger domains take random weights and
// random values.
func randLeaf(rng *rand.Rand, nv, n, width, dom int, p func() float64, neg float64) (*formula.Space, formula.DNF) {
	s := formula.NewSpace()
	for i := 0; i < nv; i++ {
		if dom == 2 {
			s.AddBool(p())
			continue
		}
		dist := make([]float64, dom)
		sum := 0.0
		for a := range dist {
			dist[a] = 0.05 + rng.Float64()
			sum += dist[a]
		}
		for a := range dist {
			dist[a] /= sum
		}
		s.AddVar(dist...)
	}
	var d formula.DNF
	for len(d) < n {
		atoms := make([]formula.Atom, 1+rng.Intn(width))
		for j := range atoms {
			a := formula.Atom{Var: formula.Var(rng.Intn(nv)), Val: formula.True}
			switch {
			case dom > 2:
				a.Val = formula.Val(rng.Intn(dom))
			case rng.Float64() < neg:
				a.Val = formula.False
			}
			atoms[j] = a
		}
		if c, ok := formula.NewClause(atoms...); ok {
			d = append(d, c)
		}
	}
	return s, d
}

func TestSortingNeverLoosensLowerBound(t *testing.T) {
	// The empirical claim behind the heuristic (Section V-A): sorting by
	// descending marginal probability gives a lower bound at least as
	// good as the max-clause fallback, and on Example 5.2 strictly better
	// than Figure 3's unsorted greedy partitioning.
	s, d := example52()
	loSorted, _ := LeafBounds(s, d)
	loUnsorted, _ := fig3Bounds(s, d, false)
	if loSorted <= loUnsorted {
		t.Fatalf("sorted lower bound %v should beat unsorted %v here", loSorted, loUnsorted)
	}
	// In general the sorted lower bound is at least the best single
	// clause probability.
	for seed := int64(0); seed < 40; seed++ {
		s, d := randdnf.Generate(randdnf.Default(), seed)
		if len(d) == 0 {
			continue
		}
		best := 0.0
		for _, c := range d {
			if p := c.Probability(s); p > best {
				best = p
			}
		}
		lo, _ := LeafBounds(s, d)
		if lo < best-1e-12 {
			t.Fatalf("seed %d: lower bound %v below best clause %v", seed, lo, best)
		}
	}
}

func TestApproxCond(t *testing.T) {
	cases := []struct {
		kind   ErrorKind
		eps    float64
		lo, hi float64
		want   bool
	}{
		{Absolute, 0.01, 0.5, 0.52, true},
		{Absolute, 0.01, 0.5, 0.521, false},
		{Absolute, 0, 0.5, 0.5, true},
		{Relative, 0.1, 0.9, 1.0, true},   // 0.9·1.0 ≤ 1.1·0.9
		{Relative, 0.01, 0.9, 1.0, false}, // 0.99 > 0.909
		{Relative, 0.1, 0, 0, true},
		{Relative, 0.1, 0, 0.001, false},
	}
	for i, tc := range cases {
		if got := ApproxCond(tc.kind, tc.eps, tc.lo, tc.hi); got != tc.want {
			t.Errorf("case %d: got %v, want %v", i, got, tc.want)
		}
	}
}

func TestExample59(t *testing.T) {
	// Example 5.9: with bounds [0.842, 0.848] there is precisely one
	// absolute 0.003-approximation, 0.845; with ε = 0.004 any value in
	// [0.844, 0.846] qualifies.
	lo, hi := 0.842, 0.848
	if !ApproxCond(Absolute, 0.003, lo, hi) {
		t.Fatal("0.003 condition should hold")
	}
	if got := EstimateFrom(Absolute, 0.003, lo, hi); math.Abs(got-0.845) > 1e-12 {
		t.Fatalf("estimate = %v, want 0.845", got)
	}
	if !ApproxCond(Absolute, 0.004, lo, hi) {
		t.Fatal("0.004 condition should hold")
	}
	est := EstimateFrom(Absolute, 0.004, lo, hi)
	if est < 0.844-1e-12 || est > 0.846+1e-12 {
		t.Fatalf("estimate %v outside [0.844, 0.846]", est)
	}
}

func TestEstimateFromClamps(t *testing.T) {
	if got := EstimateFrom(Absolute, 0.5, 0.9, 1.0); got > 1 {
		t.Fatalf("estimate %v above 1", got)
	}
	if got := EstimateFrom(Absolute, 0.5, 0, 0.1); got < 0 {
		t.Fatalf("estimate %v below 0", got)
	}
}

// TestLeafBoundsOrderMatchesStableSort: the radix-keyed sort puts the
// clauses in exactly the order the stable sort descending on probability
// did, on every kind of value a clause probability can take — ties of
// every size, exact 1.0, underflow to +0, denormals — and on both sides
// of the insertion-sort cutoff. The bucket arithmetic reads the
// probability back from the key, so that round trip is checked too.
func TestLeafBoundsOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	product := func() float64 { return rng.Float64() * rng.Float64() * rng.Float64() }
	kinds := []struct {
		name string
		p    func() float64
	}{
		{"products", product},
		{"all equal", func() float64 { return 0.25 }},
		{"two-valued", func() float64 { return []float64{0.5, 0.125}[rng.Intn(2)] }},
		{"a dozen values", func() float64 { return float64(1+rng.Intn(12)) / 16 }},
		{"ones among products", func() float64 {
			if rng.Intn(3) == 0 {
				return 1
			}
			return product()
		}},
		{"underflow to +0", func() float64 { return math.Ldexp(rng.Float64(), -1060-rng.Intn(40)) }},
		{"denormals", func() float64 { return math.Ldexp(rng.Float64(), -1030-rng.Intn(40)) }},
		{"every magnitude", func() float64 { return math.Ldexp(rng.Float64(), -rng.Intn(1080)) }},
		{"ascending", nil},
	}
	for _, n := range []int{0, 1, 2, radixCutoff - 1, radixCutoff, radixCutoff + 1, 1000, 100_000} {
		for _, kind := range kinds {
			probs := make([]float64, n)
			for i := range probs {
				if kind.p == nil {
					probs[i] = float64(i+1) / float64(n+1)
				} else {
					probs[i] = kind.p()
				}
			}
			keys, spare := make([]probKey, n), make([]probKey, n)
			for i, p := range probs {
				keys[i] = probKey{desc: ^math.Float64bits(p), i: int32(i)}
			}
			got, want := sortProbKeys(keys, spare), refLeafOrder(probs)
			if len(got) != len(want) {
				t.Fatalf("%s, n=%d: %d keys back", kind.name, n, len(got))
			}
			for j, k := range got {
				if int(k.i) != want[j] {
					t.Fatalf("%s, n=%d: position %d holds clause %d (p=%v), the stable sort puts clause %d (p=%v) there",
						kind.name, n, j, k.i, probs[k.i], want[j], probs[want[j]])
				}
				if math.Float64bits(k.prob()) != math.Float64bits(probs[k.i]) {
					t.Fatalf("%s, n=%d: clause %d reads back p=%v, was %v", kind.name, n, k.i, k.prob(), probs[k.i])
				}
			}
		}
	}
}

// TestLeafBoundsAllocationsWarm: once the pooled scratch has grown to
// the input, LeafBounds allocates nothing, on a positive leaf (one pass)
// and on one that is not (Figure 3's buckets).
func TestLeafBoundsAllocationsWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	const n = 10_000
	s := formula.NewSpace()
	rng := rand.New(rand.NewSource(9))
	vars := make([]formula.Var, n/4)
	for i := range vars {
		vars[i] = s.AddBool(0.05 + 0.9*rng.Float64())
	}
	pos, bid := make(formula.DNF, n), make(formula.DNF, n)
	for i := range pos {
		xi := rng.Intn(len(vars))
		x, y := vars[xi], vars[(xi+1+rng.Intn(len(vars)-1))%len(vars)]
		pos[i] = formula.MustClause(formula.Pos(x), formula.Pos(y))
		bid[i] = formula.MustClause(formula.Pos(x), formula.Atom{Var: y, Val: formula.Val(i % 2)})
	}
	for name, d := range map[string]formula.DNF{"positive": pos, "not positive": bid} {
		leafBounds(s, d)
		if a := testing.AllocsPerRun(10, func() { leafBounds(s, d) }); a != 0 {
			t.Errorf("warm leafBounds on %d %s clauses: %v allocations, want 0", n, name, a)
		}
	}
}

// TestLeafBoundsScratchGrowsGeometrically pins grow's one rule on the
// leaf-bounds stamp and value arrays, which are indexed by variable id:
// 64 leaves on one caller-owned scratch, each one's largest variable id
// one above the last one's, reallocate each array at most 7 times
// (doubling from 2 to 128 entries), not once per leaf. No sync.Pool is
// involved, so it runs under -race too.
func TestLeafBoundsScratchGrowsGeometrically(t *testing.T) {
	const leaves = 64
	s := formula.NewSpace()
	vars := make([]formula.Var, leaves+1)
	for i := range vars {
		vars[i] = s.AddBool(0.5)
	}
	sc := new(prepScratch)
	stGrew, valGrew := 0, 0
	for i := range leaves {
		d := formula.NewDNF(formula.MustClause(formula.Pos(vars[i])), formula.MustClause(formula.Pos(vars[i+1])))
		if top := maxVar(d); top != vars[i+1] {
			t.Fatalf("leaf %d: largest variable %d, want %d", i, top, vars[i+1])
		}
		st, val := cap(sc.st), cap(sc.val)
		if lo, hi, _ := leafBoundsScratch(s, d, sc); !(0 <= lo && lo <= hi && hi <= 1) {
			t.Fatalf("leaf %d: bounds [%v, %v]", i, lo, hi)
		}
		if cap(sc.st) != st {
			stGrew++
		}
		if cap(sc.val) != val {
			valGrew++
		}
	}
	if stGrew > 7 || valGrew > 7 {
		t.Fatalf("over %d leaves the stamp array was reallocated %d times and the value array %d times, want at most 7 each",
			leaves, stGrew, valGrew)
	}
}

// pairwiseInconsistentSix is six clauses over two multi-valued
// variables, every pair contradicting: the subset walk prunes at depth 2.
func pairwiseInconsistentSix() (*formula.Space, formula.DNF) {
	s := formula.NewSpace()
	x, y := s.AddVar(0.1, 0.2, 0.3, 0.4), s.AddVar(0.2, 0.3, 0.5)
	var d formula.DNF
	for _, a := range [][2]formula.Val{{0, 0}, {1, 0}, {2, 0}, {3, 0}, {0, 1}, {0, 2}} {
		d = append(d, formula.MustClause(formula.Atom{Var: x, Val: a[0]}, formula.Atom{Var: y, Val: a[1]}))
	}
	return s, d
}

// disjointSix is six clauses over pairwise distinct variables: the
// subset walk visits all 63 subsets.
func disjointSix() (*formula.Space, formula.DNF) {
	s := formula.NewSpace()
	var d formula.DNF
	for i := 0; i < 6; i++ {
		x, y := s.AddBool(0.1+0.1*float64(i)), s.AddBool(0.35)
		d = append(d, formula.MustClause(formula.Pos(x), formula.Neg(y)))
	}
	return s, d
}

// TestInclusionExclusionAllocationsWarm: once the pooled scratch holds
// the walk's stack, leaf exact probability allocates nothing, whether
// the walk visits every subset or prunes at depth 2.
func TestInclusionExclusionAllocationsWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	gs, gd := rstGrid(3)
	is, id := pairwiseInconsistentSix()
	for _, tc := range []struct {
		name string
		s    *formula.Space
		d    formula.DNF
	}{{"6-clause width-3 grid", gs, gd[:6]}, {"6 pairwise inconsistent clauses", is, id}} {
		inclusionExclusion(tc.s, tc.d)
		if a := testing.AllocsPerRun(100, func() { inclusionExclusion(tc.s, tc.d) }); a != 0 {
			t.Errorf("%s: %v allocations per call, want 0", tc.name, a)
		}
	}
}

// TestSmallExactChargesEverySubset: smallExact charges 2^len(d) work
// units however much of the subset lattice the walk prunes, so MaxWork
// budget traces and FragCache Work values do not depend on it.
func TestSmallExactChargesEverySubset(t *testing.T) {
	is, id := pairwiseInconsistentSix()
	ds, dd := disjointSix()
	for _, tc := range []struct {
		name string
		s    *formula.Space
		d    formula.DNF
	}{{"pairwise inconsistent (pruned at depth 2)", is, id}, {"disjoint (nothing pruned)", ds, dd}, {"four disjoint", ds, dd[:4]}} {
		st := newState(context.Background(), tc.s, Options{})
		st.work += 5
		p, ops, ok := st.smallExact(tc.d)
		want := int64(1) << len(tc.d)
		if !ok || ops != want || st.work != 5+want {
			t.Errorf("%s: ok=%v ops=%d, work charged %d; want ok, %d and %d", tc.name, ok, ops, st.work-5, want, want)
		}
		if math.Float64bits(p) != math.Float64bits(refInclusionExclusion(tc.s, tc.d)) {
			t.Errorf("%s: P = %v, oracle %v", tc.name, p, refInclusionExclusion(tc.s, tc.d))
		}
	}
	gs, gd := rstGrid(3)
	st := newState(context.Background(), gs, Options{})
	if _, ops, ok := st.smallExact(gd[:incExcMaxClauses+1]); ok || ops != 0 || st.work != 0 {
		t.Errorf("%d clauses: ok=%v ops=%d work=%d, want the shortcut declined and nothing charged", incExcMaxClauses+1, ok, ops, st.work)
	}
}
