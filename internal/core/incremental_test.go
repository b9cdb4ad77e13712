package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/formula"
	"repro/internal/randdnf"
)

// Differential property: the incremental dirty-path bound propagation
// and heap-based widest-leaf selection must be indistinguishable from
// the O(tree) oracle (refRefiner in oracle_test.go: full bottom-up
// recompute + whole-tree rescan, on the reference preparation
// pipeline) across entire refinement traces — bitwise-equal
// bounds after every single step, the same step counts, and the same
// terminal errors. Bitwise equality also pins the refinement order:
// a single divergent widest-leaf pick (e.g. a width tie broken
// differently) would change the bounds trace immediately.
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

// Width ties everywhere: identical independent components produce
// leaves with exactly equal bounds intervals at every level, so every
// widest-leaf pick is decided by the DFS-preorder tie-break alone.
// The heap must agree with the reference scan step for step.
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
// bounds, done flags, step counts, errors and Results.
func diffTrace(t *testing.T, s *formula.Space, d formula.DNF, opt Options, format string, args ...any) {
	t.Helper()
	inc := NewRefiner(context.Background(), s, d, opt)
	ref := newRefRefiner(context.Background(), s, d, opt)
	step := 0
	for !inc.Done() || !ref.Done() {
		iLo, iHi, iDone := inc.Step(1)
		rLo, rHi, rDone := ref.Step(1)
		if iLo != rLo || iHi != rHi || iDone != rDone {
			t.Fatalf("%s: step %d diverged: incremental [%v,%v] done=%v, reference [%v,%v] done=%v",
				label(format, args...), step, iLo, iHi, iDone, rLo, rHi, rDone)
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
}

func label(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}
