package core

import (
	"context"
	"math"
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
	// Without probability sorting, the greedy partitioning starting from
	// c1 yields B1 = c1 ∨ c3 and B2 = c2 with bounds [0.812, 1], exactly
	// as in the first partitioning of Example 5.2.
	s, d := example52()
	lo, hi := LeafBounds(s, d, false)
	if math.Abs(lo-0.812) > 1e-12 {
		t.Fatalf("lo = %v, want 0.812", lo)
	}
	if hi != 1 {
		t.Fatalf("hi = %v, want 1 (0.812+0.21 clamped is not reached; sum > 1)", hi)
	}
}

func TestExample52Sorted(t *testing.T) {
	// With descending-probability sorting, B1 = c3 ∨ c2 (P = 0.842) and
	// B2 = c1 (P = 0.06), giving lower bound 0.842 as in the paper. The
	// paper states the upper bound as 0.848, but Figure 3 defines it as
	// min(1, ΣP(Bi)) = min(1, 0.842+0.06) = 0.902; we implement Figure 3.
	s, d := example52()
	lo, hi := LeafBounds(s, d, true)
	if math.Abs(lo-0.842) > 1e-12 {
		t.Fatalf("lo = %v, want 0.842", lo)
	}
	if math.Abs(hi-0.902) > 1e-12 {
		t.Fatalf("hi = %v, want 0.902 per Figure 3", hi)
	}
	exact := formula.BruteForceProbability(s, d)
	if math.Abs(exact-0.8456) > 1e-12 {
		t.Fatalf("exact = %v, want 0.8456", exact)
	}
	if lo > exact || hi < exact {
		t.Fatal("bounds must contain the exact probability")
	}
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
	lo, hi := LeafBounds(s, d, true)
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
	if lo, hi := LeafBounds(s, formula.DNF{}, true); lo != 0 || hi != 0 {
		t.Fatalf("false: [%v,%v]", lo, hi)
	}
	if lo, hi := LeafBounds(s, formula.DNF{formula.Clause{}}, true); lo != 1 || hi != 1 {
		t.Fatalf("true: [%v,%v]", lo, hi)
	}
	single := formula.NewDNF(formula.MustClause(formula.Pos(x)))
	if lo, hi := LeafBounds(s, single, true); lo != 0.25 || hi != 0.25 {
		t.Fatalf("singleton: [%v,%v]", lo, hi)
	}
}

func TestLeafBoundsContainExactRandom(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		cfg := randdnf.Default()
		cfg.Clauses = 8
		if seed%2 == 0 {
			cfg.MaxDomain = 3
		}
		s, d := randdnf.Generate(cfg, seed)
		want := formula.BruteForceProbability(s, d)
		for _, sorted := range []bool{true, false} {
			lo, hi := LeafBounds(s, d, sorted)
			if lo > want+1e-9 || hi < want-1e-9 {
				t.Fatalf("seed %d sorted=%v: [%v,%v] misses %v", seed, sorted, lo, hi, want)
			}
			if lo < 0 || hi > 1 || lo > hi {
				t.Fatalf("seed %d: malformed bounds [%v,%v]", seed, lo, hi)
			}
		}
	}
}

func TestSortingNeverLoosensLowerBound(t *testing.T) {
	// The empirical claim behind the heuristic (Section V-A): sorting by
	// descending marginal probability gives a lower bound at least as
	// good as the max-clause fallback, and on Example 5.2 strictly better
	// than the unsorted greedy partitioning.
	s, d := example52()
	loSorted, _ := LeafBounds(s, d, true)
	loUnsorted, _ := LeafBounds(s, d, false)
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
		lo, _ := LeafBounds(s, d, true)
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
// the input, the Figure 3 heuristic allocates nothing.
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
	d := make(formula.DNF, n)
	for i := range d {
		d[i] = formula.MustClause(formula.Pos(vars[rng.Intn(len(vars))]), formula.Pos(vars[rng.Intn(len(vars))]))
	}
	leafBounds(s, d, true)
	if a := testing.AllocsPerRun(10, func() { leafBounds(s, d, true) }); a != 0 {
		t.Fatalf("warm leafBounds on %d clauses: %v allocations, want 0", n, a)
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
		st.work.Add(5)
		p, ops, ok := st.smallExact(tc.d)
		want := int64(1) << len(tc.d)
		if !ok || ops != want || st.work.Load() != 5+want {
			t.Errorf("%s: ok=%v ops=%d, work charged %d; want ok, %d and %d", tc.name, ok, ops, st.work.Load()-5, want, want)
		}
		if math.Float64bits(p) != math.Float64bits(refInclusionExclusion(tc.s, tc.d)) {
			t.Errorf("%s: P = %v, oracle %v", tc.name, p, refInclusionExclusion(tc.s, tc.d))
		}
	}
	gs, gd := rstGrid(3)
	st := newState(context.Background(), gs, Options{})
	if _, ops, ok := st.smallExact(gd[:incExcMaxClauses+1]); ok || ops != 0 || st.work.Load() != 0 {
		t.Errorf("%d clauses: ok=%v ops=%d work=%d, want the shortcut declined and nothing charged", incExcMaxClauses+1, ok, ops, st.work.Load())
	}
}
