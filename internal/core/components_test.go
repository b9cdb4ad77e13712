package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/formula"
)

// diffComponents runs the ⊗ partition on d over sc and compares it with
// refComponents: nil for a connected d, otherwise one child per oracle
// component, equal clause for clause to d.Select of its indices and
// sliced with cap == len. It returns a description of the first
// difference, or "".
func diffComponents(sc *prepScratch, d formula.DNF) string {
	got, want := sc.components(d, maxVar(d)), refComponents(d)
	if len(want) == 1 {
		if got != nil {
			return fmt.Sprintf("connected fragment split into %d components", len(got))
		}
		return ""
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d components, oracle %d", len(got), len(want))
	}
	for i, idx := range want {
		if !got[i].Equal(d.Select(idx)) {
			return fmt.Sprintf("component %d: %v, oracle clauses %v", i, got[i], idx)
		}
		if cap(got[i]) != len(got[i]) {
			return fmt.Sprintf("component %d: cap %d, len %d", i, cap(got[i]), len(got[i]))
		}
	}
	return ""
}

func checkComponents(t *testing.T, sc *prepScratch, d formula.DNF) {
	t.Helper()
	if diff := diffComponents(sc, d); diff != "" {
		t.Fatal(diff)
	}
}

// randComponentsDNF builds a DNF with several variable-disjoint blocks
// in interleaved clause order — the shapes the partition has to split.
func randComponentsDNF(rng *rand.Rand, blocks, clausesPerBlock int) formula.DNF {
	var d formula.DNF
	for j := 0; j < clausesPerBlock; j++ {
		for b := 0; b < blocks; b++ {
			base := formula.Var(100 * b)
			w := 1 + rng.Intn(3)
			atoms := make([]formula.Atom, 0, w)
			for k := 0; k < w; k++ {
				atoms = append(atoms, formula.Atom{Var: base + formula.Var(rng.Intn(20)), Val: formula.True})
			}
			if c, ok := formula.NewClause(atoms...); ok {
				d = append(d, c)
			}
		}
	}
	return d.Normalize()
}

func TestComponents(t *testing.T) {
	d := formula.DNF{
		formula.MustClause(formula.Pos(0), formula.Pos(1)),
		formula.MustClause(formula.Pos(1), formula.Pos(2)),
		formula.MustClause(formula.Pos(3)),
		formula.MustClause(formula.Pos(4), formula.Pos(3)),
	}
	checkComponents(t, new(prepScratch), d)
	if comps := new(prepScratch).components(d, 4); len(comps) != 2 || len(comps[0]) != 2 || len(comps[1]) != 2 {
		t.Fatalf("components %v, want two of two clauses", comps)
	}
}

func TestComponentsSingle(t *testing.T) {
	// The triangle lineage is one component.
	d := formula.DNF{
		formula.MustClause(formula.Pos(0), formula.Pos(1)),
		formula.MustClause(formula.Pos(1), formula.Pos(2)),
		formula.MustClause(formula.Pos(2), formula.Pos(0)),
	}
	checkComponents(t, new(prepScratch), d)
}

func TestComponentsAllIndependent(t *testing.T) {
	var d formula.DNF
	for v := formula.Var(0); v < 6; v++ {
		d = append(d, formula.MustClause(formula.Pos(v)))
	}
	checkComponents(t, new(prepScratch), d)
	if comps := new(prepScratch).components(d, 5); len(comps) != 6 {
		t.Fatalf("got %d components, want 6", len(comps))
	}
}

func TestComponentsBlocksAndOrder(t *testing.T) {
	// Two blocks interleaved: {0,1}, {100,101}. Components come out in
	// first-clause order, clauses in d's order.
	d := formula.DNF{
		formula.MustClause(formula.Pos(0), formula.Pos(1)),
		formula.MustClause(formula.Pos(100), formula.Pos(101)),
		formula.MustClause(formula.Pos(1)),
		formula.MustClause(formula.Pos(101)),
	}
	got := new(prepScratch).components(d, 101)
	want := []formula.DNF{{d[0], d[2]}, {d[1], d[3]}}
	if len(got) != len(want) || !got[0].Equal(want[0]) || !got[1].Equal(want[1]) {
		t.Fatalf("components = %v, want %v", got, want)
	}
}

// TestComponentsScratchMatchesFresh: one scratch reused across many
// differently shaped DNFs partitions each as a fresh scratch and the
// oracle do — stale epochs never leak.
func TestComponentsScratchMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sc := new(prepScratch)
	for iter := 0; iter < 300; iter++ {
		d := randComponentsDNF(rng, 1+rng.Intn(5), 1+rng.Intn(8))
		if len(d) < 2 {
			continue
		}
		if diff := diffComponents(sc, d); diff != "" {
			t.Fatalf("iter %d, reused scratch: %s", iter, diff)
		}
		if diff := diffComponents(new(prepScratch), d); diff != "" {
			t.Fatalf("iter %d, fresh scratch: %s", iter, diff)
		}
	}
}

// chains returns k variable chains of n clauses each, interleaved: the
// clause x_i ∧ x_{i+1} of chain b links every clause of b through
// pairwise shared variables. reversed lists each chain's links from the
// top, the worst case for naive union-find parent chains.
func chains(k, n int, reversed bool) formula.DNF {
	d := make(formula.DNF, 0, k*n)
	for i := 0; i < n; i++ {
		link := i
		if reversed {
			link = n - 1 - i
		}
		for b := 0; b < k; b++ {
			v := formula.Var(b*(n+1) + link)
			d = append(d, formula.MustClause(formula.Pos(v), formula.Pos(v+1)))
		}
	}
	return d
}

// At 200k clauses a recursive union-find would push 100k+ stack frames;
// the iterative path-halving find handles a chain in flat space, alone
// and interleaved with a second one.
func TestComponentsLongChainIterative(t *testing.T) {
	const n = 200_000
	sc := new(prepScratch)
	if comps := sc.components(chains(1, n, false), n); comps != nil {
		t.Fatalf("chain split into %d components, want none", len(comps))
	}
	d := chains(2, n/2, false)
	comps := sc.components(d, maxVar(d))
	if len(comps) != 2 {
		t.Fatalf("two chains split into %d components", len(comps))
	}
	for g, comp := range comps {
		for i, c := range comp {
			if !c.Equal(d[2*i+g]) {
				t.Fatalf("component %d clause %d: %v, want %v", g, i, c, d[2*i+g])
			}
		}
	}
}

// TestComponentsLongChainReversed: unions always attach the lower root
// under the higher one.
func TestComponentsLongChainReversed(t *testing.T) {
	const n = 100_000
	sc := new(prepScratch)
	if comps := sc.components(chains(1, n, true), n); comps != nil {
		t.Fatalf("reversed chain split into %d components, want none", len(comps))
	}
	checkComponents(t, sc, chains(3, n/3, true))
}

// TestQuickComponentsAreIndependent: P(Φ) = 1 − Π (1 − P(component)).
func TestQuickComponentsAreIndependent(t *testing.T) {
	sc := new(prepScratch)
	f := func(seed int64) bool {
		s, d := genFromSeed(seed)
		if d = d.Normalize(); len(d) < 2 || d.IsTrue() {
			return true
		}
		comps := sc.components(d, maxVar(d))
		if comps == nil {
			comps = []formula.DNF{d}
		}
		q := 1.0
		for _, comp := range comps {
			q *= 1 - formula.BruteForceProbability(s, comp)
		}
		return math.Abs((1-q)-formula.BruteForceProbability(s, d)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickComponentsPartition: over random DNFs, on one reused
// scratch, the partition is the oracle's.
func TestQuickComponentsPartition(t *testing.T) {
	sc := new(prepScratch)
	f := func(seed int64) bool {
		_, d := genFromSeed(seed)
		if d = d.Normalize(); len(d) < 2 || d.IsTrue() {
			return true
		}
		return diffComponents(sc, d) == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}
