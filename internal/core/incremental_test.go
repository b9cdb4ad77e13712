package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/formula"
	"repro/internal/randdnf"
)

// Differential property: the incremental dirty-path bound propagation
// and heap-based leaf selection must be indistinguishable from
// the O(tree) oracle (refRefiner in oracle_test.go: full bottom-up
// recompute + whole-tree rescan, on the reference preparation
// pipeline) across entire refinement traces — bitwise-equal
// bounds after every single step, the same step counts, and the same
// terminal errors. Bitwise equality also pins the refinement order:
// a single divergent leaf pick (e.g. a key tie broken differently)
// would change the bounds trace immediately.
func TestRefinerIncrementalMatchesReferenceProperty(t *testing.T) {
	type variant struct {
		cfg randdnf.Config
		opt Options
	}
	variants := []variant{
		{randdnf.Default(), Options{Eps: 0.01, Kind: Absolute}},
		{randdnf.Default(), Options{Eps: 0.05, Kind: Relative}},
		{randdnf.Config{Vars: 14, Clauses: 20, MaxWidth: 3, MaxDomain: 2, MinProb: 0.05, MaxProb: 0.6},
			Options{Eps: 1e-4, Kind: Absolute}},
		{randdnf.Config{Vars: 12, Clauses: 18, MaxWidth: 3, MaxDomain: 4, MinProb: 0.05, MaxProb: 0.5},
			Options{Eps: 1e-3, Kind: Absolute}},
		// Eps 0 refines to exactness: the longest traces.
		{randdnf.Config{Vars: 12, Clauses: 16, MaxWidth: 3, MaxDomain: 2, MinProb: 0.1, MaxProb: 0.9},
			Options{}},
		// A node budget cuts the trace mid-tree on both paths alike.
		{randdnf.Config{Vars: 16, Clauses: 24, MaxWidth: 4, MaxDomain: 2, MinProb: 0.3, MaxProb: 0.7},
			Options{Eps: 1e-9, Kind: Absolute, MaxNodes: 60}},
	}
	traces := 0
	for vi, v := range variants {
		for seed := int64(0); seed < 40; seed++ {
			s, d := randdnf.Generate(v.cfg, 1000*int64(vi)+seed)
			diffTrace(t, s, d, v.opt, "variant %d seed %d", vi, seed)
			traces++
		}
	}
	if traces < 200 {
		t.Fatalf("only %d differential traces, the property demands ≥ 200", traces)
	}
}

// Key ties everywhere: identical independent components produce
// leaves with exactly equal bounds intervals and sensitivities at every
// level, so most picks (18 of this trace's 29) are decided by the
// DFS-preorder tie-break alone. The heap must agree with the reference
// scan step for step.
func TestRefinerIncrementalTieBreaks(t *testing.T) {
	s := formula.NewSpace()
	var d formula.DNF
	for comp := 0; comp < 4; comp++ {
		// Each component: the same 10-clause chain pattern over its own
		// variables with identical probabilities — isomorphic lineage.
		vars := make([]formula.Var, 12)
		for i := range vars {
			vars[i] = s.AddBool(0.05 + 0.02*float64(i%5))
		}
		for j := 0; j < 10; j++ {
			c, ok := formula.NewClause(
				formula.Pos(vars[j]), formula.Pos(vars[(j+1)%len(vars)]), formula.Pos(vars[(j+5)%len(vars)]))
			if !ok {
				t.Fatal("clause construction failed")
			}
			d = append(d, c)
		}
	}
	d = d.Normalize()
	diffTrace(t, s, d, Options{Eps: 1e-6, Kind: Absolute}, "symmetric components")
}

// diffTrace steps a Refiner and the refRefiner oracle over d in
// lockstep and requires bitwise-identical behavior at every step:
// bounds, done flags, step counts, errors and Results. Before every
// step the Refiner's next leaf must carry a key no smaller than its
// live one (checkNextKey), and when d has at most bruteWorlds
// valuations the bounds after every step must contain P(d).
// It returns the number of steps whose leaf's live sensitivity had
// fallen below its stored one, where the key check has teeth.
func diffTrace(t *testing.T, s *formula.Space, d formula.DNF, opt Options, format string, args ...any) int {
	t.Helper()
	inc := NewRefiner(context.Background(), s, d, opt)
	ref := newRefRefiner(context.Background(), s, d, opt)
	truth, bruteForce := bruteTruth(s, d)
	step, fallen := 0, 0
	for !inc.Done() || !ref.Done() {
		if checkNextKey(t, inc, format, args...) {
			fallen++
		}
		iLo, iHi, iDone := inc.Step(1)
		rLo, rHi, rDone := ref.Step(1)
		if iLo != rLo || iHi != rHi || iDone != rDone {
			t.Fatalf("%s: step %d diverged: incremental [%v,%v] done=%v, reference [%v,%v] done=%v",
				label(format, args...), step, iLo, iHi, iDone, rLo, rHi, rDone)
		}
		if bruteForce && (iLo > truth+1e-9 || iHi < truth-1e-9) {
			t.Fatalf("%s: step %d: bounds [%v,%v] miss P = %v", label(format, args...), step, iLo, iHi, truth)
		}
		step++
		if step > 1<<20 {
			t.Fatalf("%s: trace did not terminate", label(format, args...))
		}
	}
	if inc.Steps() != ref.Steps() {
		t.Fatalf("%s: step counts diverged: %d vs %d", label(format, args...), inc.Steps(), ref.Steps())
	}
	if !errors.Is(inc.Err(), ref.Err()) && !errors.Is(ref.Err(), inc.Err()) {
		t.Fatalf("%s: errors diverged: %v vs %v", label(format, args...), inc.Err(), ref.Err())
	}
	ri, rr := inc.Result(), ref.Result()
	if ri != rr {
		t.Fatalf("%s: results diverged:\nincremental %+v\nreference   %+v", label(format, args...), ri, rr)
	}
	// The cached root interval must equal a from-scratch bottom-up
	// recompute of the final tree, bitwise.
	if bl, bh := inc.root.bounds(); bl != inc.root.lo || bh != inc.root.hi {
		t.Fatalf("%s: cached root bounds [%v,%v] diverge from full recompute [%v,%v]",
			label(format, args...), inc.root.lo, inc.root.hi, bl, bh)
	}
	return fallen
}

func label(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}

// TestRefinerKeyBoundsLiveSensitivityProperty runs diffTrace — with
// its per-step key and containment checks — over formulas shaped
// (A ∧ B) ∨ (C ∧ D) for independent random DNFs A, B, C and D of three
// variables each, Boolean or three-valued, so that traces pass through
// ⊗, ⊙ and ⊕ nodes with several open siblings, and most formulas have
// at most 4096 valuations for the brute-force P.
func TestRefinerKeyBoundsLiveSensitivityProperty(t *testing.T) {
	fallen := 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := formula.NewSpace()
		part := func(nvars, nclauses int) formula.DNF {
			vars := make([]formula.Var, nvars)
			for i := range vars {
				if rng.Intn(6) == 0 {
					a, b := 0.05+0.4*rng.Float64(), 0.05+0.4*rng.Float64()
					vars[i] = s.AddVar(a, b, 1-a-b)
				} else {
					vars[i] = s.AddBool(0.05 + 0.9*rng.Float64())
				}
			}
			var d formula.DNF
			for len(d) < nclauses {
				atoms := make([]formula.Atom, 1+rng.Intn(3))
				for i := range atoms {
					v := vars[rng.Intn(nvars)]
					atoms[i] = formula.Atom{Var: v, Val: formula.Val(rng.Intn(s.DomainSize(v)))}
				}
				if c, ok := formula.NewClause(atoms...); ok {
					d = append(d, c)
				}
			}
			return d
		}
		and := func(x, y formula.DNF) formula.DNF {
			var d formula.DNF
			for _, cx := range x {
				for _, cy := range y {
					if c, ok := formula.NewClause(append(slices.Clone(cx), cy...)...); ok {
						d = append(d, c)
					}
				}
			}
			return d
		}
		d := append(and(part(3, 4), part(3, 4)), and(part(3, 4), part(3, 4))...)
		for _, opt := range []Options{{}, {Eps: 1e-3, Kind: Absolute}, {Eps: 0.01, Kind: Relative}} {
			fallen += diffTrace(t, s, d, opt, "seed %d eps %v %v", seed, opt.Eps, opt.Kind)
		}
	}
	if fallen < 300 {
		t.Fatalf("only %d steps popped a leaf whose siblings had tightened", fallen)
	}
}

// checkNextKey asserts that the leaf r pops next carries a key no
// smaller than its width times its root sensitivity recomputed from the
// current cached bounds of the siblings along its path (liveSens): the
// stored key, taken from the siblings' prepared bounds, is an upper
// bound. The slack covers the different order of the products. It
// reports whether the live sensitivity has fallen below the stored one.
func checkNextKey(t *testing.T, r *Refiner, format string, args ...any) bool {
	t.Helper()
	if len(r.open) == 0 {
		return false
	}
	e := r.open[0]
	sens := liveSens(e.n)
	if live := (e.n.frag.Hi - e.n.frag.Lo) * sens; e.key() < live*(1-1e-12) {
		t.Fatalf("%s: step %d: stored key %v (sensitivity %v) is below the live %v (sensitivity %v)",
			label(format, args...), r.Steps(), e.key(), e.sens, live, sens)
	}
	return sens < e.sens*(1-1e-12)
}

// liveSens is n's root sensitivity from its siblings' current cached
// intervals: along the path, n's mult times 1 − mult·lo of each
// sibling under ⊗ and mult·hi of each under ⊙.
func liveSens(n *gNode) float64 {
	sens := 1.0
	for ; n.parent != nil; n = n.parent {
		p, f := n.parent, n.mult
		for j := range p.children {
			c := &p.children[j]
			switch {
			case c == n:
			case p.kind == IndepOr:
				f *= 1 - c.mult*c.lo
			case p.kind == IndepAnd:
				f *= c.mult * c.hi
			}
		}
		sens *= f
	}
	return sens
}

// bruteWorlds caps the valuations diffTrace enumerates for its
// containment check: 12 Boolean variables.
const bruteWorlds = 1 << 12

// bruteTruth returns P(d) by enumeration, and whether d is small enough
// (at most bruteWorlds valuations of its variables) to enumerate.
func bruteTruth(s *formula.Space, d formula.DNF) (float64, bool) {
	worlds := 1
	for _, v := range d.Vars() {
		if worlds *= s.DomainSize(v); worlds > bruteWorlds {
			return 0, false
		}
	}
	return formula.BruteForceProbability(s, d), true
}

// FuzzRefinerMatchesReference is diffTrace over byte-decoded formulas
// (decodeLeafDNF: up to 16 variables and 24 clauses, atoms as unlikely
// as 2⁻²⁴) under the options refinerVariant reads from flags: the heap
// Refiner against refRefiner bitwise at every step, every stored key
// an upper bound on its live one, and the bounds containing P wherever
// it can be enumerated. The seed corpus under testdata/fuzz holds
// FuzzLeafBoundsContainOracle's leaves, one per variant.
func FuzzRefinerMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, flags uint8) {
		s, d := decodeLeafDNF(data)
		diffTrace(t, s, d, refinerVariant(flags), "flags %#x", flags)
	})
}

// refinerVariant reads Options from a fuzzed byte: Eps from {0, 1e-3,
// 0.05, 1e-9} (bits 0–1), relative rather than absolute (bit 2), and a
// node budget of 24 that cuts the trace mid-tree (bit 3).
func refinerVariant(flags uint8) Options {
	opt := Options{Eps: []float64{0, 1e-3, 0.05, 1e-9}[flags&3], Kind: Absolute}
	if flags&4 != 0 {
		opt.Kind = Relative
	}
	if flags&8 != 0 {
		opt.MaxNodes = 24
	}
	return opt
}

// refinerStepWorkload is the step ledger's width3 fixture: a random
// width-3 DNF refined at a tight Eps under a node budget, so every run
// refines maxNodes worth of tree.
func refinerStepWorkload(clauses int) (*formula.Space, formula.DNF, Options) {
	s, d := randdnf.Width3(clauses)
	return s, d, Options{Eps: 1e-12, Kind: Absolute, MaxNodes: 40 * clauses}
}

// TestRefinerStepsMatchOracle runs the width3 fixtures through the
// Refiner and the O(tree) oracle: both must spend the same number of
// steps. The step counts themselves are rows of internal/exp's step
// ledger (TestStepLedger).
func TestRefinerStepsMatchOracle(t *testing.T) {
	for _, clauses := range []int{40, 80, 160, 320} {
		s, d, opt := refinerStepWorkload(clauses)
		r := NewRefiner(context.Background(), s, d, opt)
		for !r.Done() {
			r.Step(64)
		}
		ref := newRefRefiner(context.Background(), s, d, opt)
		for !ref.Done() {
			ref.Step(64)
		}
		if r.Steps() != ref.Steps() {
			t.Errorf("clauses=%d: %d steps, the oracle %d", clauses, r.Steps(), ref.Steps())
		}
	}
}
