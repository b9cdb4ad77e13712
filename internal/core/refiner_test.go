package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/formula"
	"repro/internal/randdnf"
)

// stepAll runs r to completion one refinement at a time and returns the
// final bounds.
func stepAll(r *Refiner) (lo, hi float64) {
	for !r.Done() {
		lo, hi, _ = r.Step(1)
	}
	return r.Bounds()
}

func TestRefinerConvergesToTruth(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		s, d := randdnf.Generate(randdnf.Default(), seed)
		want := formula.BruteForceProbability(s, d)
		r := NewRefiner(context.Background(), s, d, Options{Eps: 0.01, Kind: Absolute})
		lo, hi := stepAll(r)
		if r.Err() != nil {
			t.Fatalf("seed %d: %v", seed, r.Err())
		}
		if lo > want+1e-9 || hi < want-1e-9 {
			t.Fatalf("seed %d: bounds [%v,%v] miss truth %v", seed, lo, hi, want)
		}
		res := r.Result()
		if !res.Converged || math.Abs(res.Estimate-want) > 0.01+1e-9 {
			t.Fatalf("seed %d: res %+v vs truth %v", seed, res.Estimate, want)
		}
	}
}

func TestRefinerMonotoneNonWidening(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		s, d := randdnf.Generate(randdnf.Default(), seed)
		want := formula.BruteForceProbability(s, d)
		r := NewRefiner(context.Background(), s, d, Options{Eps: 1e-6, Kind: Absolute})
		lo, hi := r.Bounds()
		for !r.Done() {
			nlo, nhi, _ := r.Step(1)
			if nlo < lo || nhi > hi {
				t.Fatalf("seed %d: bounds widened [%v,%v] -> [%v,%v]", seed, lo, hi, nlo, nhi)
			}
			if nlo > want+1e-9 || nhi < want-1e-9 {
				t.Fatalf("seed %d: bounds [%v,%v] exclude truth %v", seed, nlo, nhi, want)
			}
			lo, hi = nlo, nhi
		}
	}
}

// Step granularity must not change where refinement lands: refining
// 1-by-1 and in large grants visits leaves in the same order, so the
// final bounds agree exactly.
func TestRefinerStepGranularity(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		s, d := randdnf.Generate(randdnf.Default(), seed)
		opt := Options{Eps: 0.005, Kind: Absolute}
		fine := NewRefiner(context.Background(), s, d, opt)
		lo1, hi1 := stepAll(fine)
		coarse := NewRefiner(context.Background(), s, d, opt)
		for !coarse.Done() {
			coarse.Step(1 << 20)
		}
		lo2, hi2 := coarse.Bounds()
		if lo1 != lo2 || hi1 != hi2 || fine.Steps() != coarse.Steps() {
			t.Fatalf("seed %d: fine [%v,%v]/%d steps != coarse [%v,%v]/%d steps",
				seed, lo1, hi1, fine.Steps(), lo2, hi2, coarse.Steps())
		}
	}
}

func TestRefinerEpsZeroExact(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		s, d := randdnf.Generate(randdnf.Default(), seed)
		want := formula.BruteForceProbability(s, d)
		r := NewRefiner(context.Background(), s, d, Options{})
		lo, hi := stepAll(r)
		if r.Err() != nil || hi-lo > 1e-9 || math.Abs(lo-want) > 1e-9 {
			t.Fatalf("seed %d: [%v,%v] err %v, want point at %v", seed, lo, hi, r.Err(), want)
		}
	}
}

func TestRefinerBudget(t *testing.T) {
	s, d := randdnf.Generate(randdnf.Config{
		Vars: 16, Clauses: 24, MaxWidth: 4, MaxDomain: 2, MinProb: 0.3, MaxProb: 0.7,
	}, 11)
	want := formula.BruteForceProbability(s, d)
	r := NewRefiner(context.Background(), s, d, Options{Eps: 1e-9, Kind: Absolute, MaxNodes: 10})
	lo, hi := stepAll(r)
	if !errors.Is(r.Err(), ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", r.Err())
	}
	if lo > want+1e-9 || hi < want-1e-9 {
		t.Fatalf("budget bounds [%v,%v] miss %v", lo, hi, want)
	}
	if res := r.Result(); res.Converged {
		t.Fatalf("budget-stopped refiner reports Converged: %+v", res)
	}
}

func TestRefinerCancelled(t *testing.T) {
	s, d := randdnf.Generate(randdnf.Default(), 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRefiner(ctx, s, d, Options{Eps: 0.01, Kind: Absolute})
	if !r.Done() || !errors.Is(r.Err(), context.Canceled) {
		t.Fatalf("done=%v err=%v, want immediate cancellation", r.Done(), r.Err())
	}
	// Mid-run cancellation: cancel between steps. Low-probability wide
	// clauses keep the instance from completing in a single step.
	ctx2, cancel2 := context.WithCancel(context.Background())
	s2, d2 := randdnf.Generate(randdnf.Config{
		Vars: 30, Clauses: 60, MaxWidth: 3, ForceWidth: true, MaxDomain: 2,
		MinProb: 0.01, MaxProb: 0.1,
	}, 7)
	r2 := NewRefiner(ctx2, s2, d2, Options{Eps: 1e-12, Kind: Absolute})
	r2.Step(1)
	if r2.Done() {
		t.Fatal("instance finished in one step; grow it to test mid-run cancellation")
	}
	cancel2()
	lo, hi, done := r2.Step(1 << 20)
	if !done || !errors.Is(r2.Err(), context.Canceled) {
		t.Fatalf("done=%v err=%v after cancel", done, r2.Err())
	}
	want, err := ExactCtx(context.Background(), s2, d2, Options{})
	if err != nil || lo > want.Estimate+1e-9 || hi < want.Estimate-1e-9 {
		t.Fatalf("partial bounds [%v,%v] miss %v (%v)", lo, hi, want.Estimate, err)
	}
}

// A shared fragment cache lets a second refiner over the same lineage
// reuse the first's prepared fragments. Two refiners stepping at once
// over one cache (run under -race) replay decisions the other recorded
// and read entries whose clauses live in the other's step blocks; every
// step's bounds must be bitwise those of a serial run.
func TestRefinerSharedCache(t *testing.T) {
	s, d := randdnf.Generate(randdnf.Config{
		Vars: 24, Clauses: 40, MaxWidth: 3, MaxDomain: 2, MinProb: 0.05, MaxProb: 0.3,
	}, 5)
	frags := formula.NewFragCache(0)
	opt := Options{Eps: 1e-9, Kind: Absolute, Frags: frags}
	r1 := NewRefiner(context.Background(), s, d, opt)
	stepAll(r1)
	before := frags.CacheStats()
	r2 := NewRefiner(context.Background(), s, d, opt)
	stepAll(r2)
	if after := frags.CacheStats(); after.Hits == before.Hits {
		t.Fatalf("second refiner made no fragment-cache hits (misses %d → %d)", before.Misses, after.Misses)
	}
	lo1, hi1 := r1.Bounds()
	lo2, hi2 := r2.Bounds()
	if lo1 != lo2 || hi1 != hi2 {
		t.Fatalf("cache changed bounds: [%v,%v] vs [%v,%v]", lo1, hi1, lo2, hi2)
	}

	rs, rd := randdnf.Generate(randdnf.Config{
		Vars: 20, Clauses: 60, MaxWidth: 3, MaxDomain: 3, ForceWidth: true, MinProb: 0.2, MaxProb: 0.6,
	}, 5)
	gs, gd := rstGrid(5)
	for _, tc := range []struct {
		name string
		s    *formula.Space
		d    formula.DNF
	}{{"random", rs, rd}, {"5×5 grid", gs, gd}} {
		serial := boundsTrace(NewRefiner(context.Background(), tc.s, tc.d, Options{Eps: 1e-9, Kind: Absolute, Frags: formula.NewFragCache(0)}))
		shared := formula.NewFragCache(0)
		var traces [2][][2]uint64
		var wg sync.WaitGroup
		for w := range traces {
			wg.Add(1)
			go func() {
				defer wg.Done()
				traces[w] = boundsTrace(NewRefiner(context.Background(), tc.s, tc.d, Options{Eps: 1e-9, Kind: Absolute, Frags: shared}))
			}()
		}
		wg.Wait()
		for w, tr := range traces {
			if !slices.Equal(tr, serial) {
				t.Fatalf("%s: concurrent refiner %d diverged from the serial run (%d steps, serial %d)", tc.name, w, len(tr), len(serial))
			}
		}
	}
}

// boundsTrace runs r to completion one refinement at a time and returns
// the bits of its bounds after every step.
func boundsTrace(r *Refiner) [][2]uint64 {
	var out [][2]uint64
	for !r.Done() {
		lo, hi, _ := r.Step(1)
		out = append(out, [2]uint64{math.Float64bits(lo), math.Float64bits(hi)})
	}
	return out
}

func TestRefinerExactAtPrepare(t *testing.T) {
	// Independent clauses: exact at preparation, Done with zero steps.
	s := formula.NewSpace()
	var d formula.DNF
	for i := 0; i < 20; i++ {
		d = append(d, formula.MustClause(formula.Pos(s.AddBool(0.1))))
	}
	r := NewRefiner(context.Background(), s, d, Options{Eps: 0.01, Kind: Relative})
	if !r.Done() || r.Steps() != 0 {
		t.Fatalf("done=%v steps=%d, want immediate exact", r.Done(), r.Steps())
	}
	if res := r.Result(); res.Nodes != 1 || !res.Converged {
		t.Fatalf("res %+v, want the root alone, converged", res)
	}
}

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
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(1))}); err != nil {
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
