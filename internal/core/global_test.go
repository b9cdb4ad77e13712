package core

import (
	"context"
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/formula"
	"repro/internal/randdnf"
)

// TestGNodeSize: a materialized d-tree node is 80 bytes on a 64-bit
// platform. The open-leaf heap keeps each leaf's root sensitivity in
// its own entry (leafEntry) rather than in gNode: an 88-byte node cost
// the warm serving path 2 % more allocated bytes per query.
func TestGNodeSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes below are for 64-bit platforms")
	}
	if n := unsafe.Sizeof(gNode{}); n != 80 {
		t.Fatalf("gNode is %d bytes, want 80", n)
	}
	if n := unsafe.Sizeof(leafEntry{}); n != 16 {
		t.Fatalf("leafEntry is %d bytes, want 16", n)
	}
}

func TestGlobalAbsoluteGuarantee(t *testing.T) {
	for _, eps := range []float64{0.1, 0.01} {
		for seed := int64(0); seed < 30; seed++ {
			s, d := randdnf.Generate(randdnf.Default(), seed)
			want := formula.BruteForceProbability(s, d)
			res, err := ApproxCtx(context.Background(), s, d, Options{Eps: eps, Kind: Absolute})
			if err != nil {
				t.Fatalf("eps=%v seed=%d: %v", eps, seed, err)
			}
			if math.Abs(res.Estimate-want) > eps+1e-9 {
				t.Fatalf("eps=%v seed=%d: |%v-%v| > ε", eps, seed, res.Estimate, want)
			}
		}
	}
}

func TestGlobalRelativeGuarantee(t *testing.T) {
	f := func(seed int64) bool {
		s, d := genFromSeed(seed)
		want := formula.BruteForceProbability(s, d)
		res, err := ApproxCtx(context.Background(), s, d, Options{Eps: 0.05, Kind: Relative})
		if err != nil {
			return false
		}
		return res.Estimate >= (1-0.05)*want-1e-9 && res.Estimate <= (1+0.05)*want+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalEpsZeroExact(t *testing.T) {
	s, d := randdnf.Generate(randdnf.Default(), 9)
	want := formula.BruteForceProbability(s, d)
	res, err := ApproxCtx(context.Background(), s, d, Options{})
	if err != nil || !res.Exact || math.Abs(res.Estimate-want) > 1e-9 {
		t.Fatalf("res=%+v err=%v want=%v", res, err, want)
	}
}

func TestGlobalBudget(t *testing.T) {
	s, d := randdnf.Generate(randdnf.Config{
		Vars: 16, Clauses: 24, MaxWidth: 4, MaxDomain: 2, MinProb: 0.3, MaxProb: 0.7,
	}, 11)
	want := formula.BruteForceProbability(s, d)
	res, err := ApproxCtx(context.Background(), s, d, Options{Eps: 1e-9, Kind: Absolute, MaxNodes: 10})
	if err != ErrBudget {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if res.Lo > want+1e-9 || res.Hi < want-1e-9 {
		t.Fatalf("budget bounds [%v,%v] miss %v", res.Lo, res.Hi, want)
	}
}

func TestGlobalEarlyStopImmediate(t *testing.T) {
	// Independent clauses: exact bounds at the root, no refinement.
	s := formula.NewSpace()
	var d formula.DNF
	for i := 0; i < 20; i++ {
		d = append(d, formula.MustClause(formula.Pos(s.AddBool(0.1))))
	}
	res, err := ApproxCtx(context.Background(), s, d, Options{Eps: 0.01, Kind: Relative})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != 1 {
		t.Fatalf("built %d nodes, want the root alone", res.Nodes)
	}
}
