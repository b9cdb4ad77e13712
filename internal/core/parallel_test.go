package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/formula"
	"repro/internal/randdnf"
	"repro/internal/workpool"
)

// hierarchicalDNF builds tractable lineage shaped like a hierarchical
// query's (groups of clauses sharing a group variable): exact d-tree
// compilation decomposes it into wide independent-or nodes, the shape
// the parallel exploration targets.
func hierarchicalDNF(groups, perGroup int, s *formula.Space) formula.DNF {
	var d formula.DNF
	for g := 0; g < groups; g++ {
		r := s.AddBoolTagged(0.3, 0)
		for j := 0; j < perGroup; j++ {
			sv := s.AddBoolTagged(0.5, 1)
			d = append(d, formula.MustClause(formula.Pos(r), formula.Pos(sv)))
		}
	}
	return d
}

// TestParallelMatchesSequential is the property test for the parallel
// engine: on random DNFs and on tractable hierarchical lineage, the
// parallel exact path must return bitwise-identical Lo/Hi/Estimate (and
// node counts) to the sequential path, because children are combined in
// child-index order either way.
func TestParallelMatchesSequential(t *testing.T) {
	wide := workpool.New(8) // force real fan-out even on single-CPU machines

	check := func(name string, s *formula.Space, d formula.DNF) {
		t.Helper()
		seq, err := ExactCtx(context.Background(), s, d, Options{Pool: workpool.New(1)})
		if err != nil {
			t.Fatalf("%s sequential: %v", name, err)
		}
		par, err := ExactCtx(context.Background(), s, d, Options{Pool: wide})
		if err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		if seq.Lo != par.Lo || seq.Hi != par.Hi || seq.Estimate != par.Estimate {
			t.Fatalf("%s: parallel (%v,%v,%v) != sequential (%v,%v,%v)",
				name, par.Lo, par.Hi, par.Estimate, seq.Lo, seq.Hi, seq.Estimate)
		}
		if seq.Nodes != par.Nodes {
			t.Fatalf("%s: parallel built %d nodes, sequential %d", name, par.Nodes, seq.Nodes)
		}
	}

	for seed := int64(1); seed <= 25; seed++ {
		s, d := randdnf.Generate(randdnf.Config{
			Vars: 40, Clauses: 70, MaxWidth: 3, MaxDomain: 3, MinProb: 0.05, MaxProb: 0.95,
		}, seed)
		check("random", s, d)
	}
	s := formula.NewSpace()
	check("hierarchical", s, hierarchicalDNF(40, 5, s))
}

// TestParallelApproxMatchesSequential checks the eps > 0 path: it runs
// on the calling goroutine, so the pool's size must leave its bounds
// and refinement order unchanged.
func TestParallelApproxMatchesSequential(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		s, d := randdnf.Generate(randdnf.Config{
			Vars: 40, Clauses: 70, MaxWidth: 3, MaxDomain: 2, MinProb: 0.05, MaxProb: 0.95,
		}, seed)
		seq, errS := ApproxCtx(context.Background(), s, d, Options{Eps: 0.01, Kind: Absolute, Pool: workpool.New(1)})
		par, errP := ApproxCtx(context.Background(), s, d, Options{Eps: 0.01, Kind: Absolute, Pool: workpool.New(8)})
		if errS != nil || errP != nil {
			t.Fatalf("seed %d: errs %v / %v", seed, errS, errP)
		}
		if seq.Lo != par.Lo || seq.Hi != par.Hi || seq.Estimate != par.Estimate ||
			seq.Nodes != par.Nodes {
			t.Fatalf("seed %d: parallel %+v != sequential %+v", seed, par, seq)
		}
	}
}

func TestExactCtxCancelPrompt(t *testing.T) {
	s, d := randdnf.Generate(randdnf.Config{
		Vars: 120, Clauses: 900, MaxWidth: 6, MaxDomain: 2, MinProb: 0.3, MaxProb: 0.7,
	}, 11)
	// An already-expired deadline: deterministic on any machine (a short
	// live timeout races the evaluation and loses on fast hardware), and
	// the stride-based polling must still surface it promptly.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	start := time.Now()
	_, err := ExactCtx(ctx, s, d, Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("cancellation took %v", el)
	}
}

// TestExactDeadlineSticky is the regression test for the cancellation
// latch: exact evaluation of a bipartite grid (x_i ∧ e_ij ∧ y_j, one
// connected component, exponentially many parallel batches) cannot
// finish, so a 50 ms deadline must end it. Without the latch every
// RunAbort sibling of the unwinding batch runs on to a stride poll of
// its own and the call never returns on a pool of size ≥ 2.
func TestExactDeadlineSticky(t *testing.T) {
	const n = 17 // 289 clauses
	s := formula.NewSpace()
	xs, ys := make([]formula.Var, n), make([]formula.Var, n)
	for i := range xs {
		xs[i], ys[i] = s.AddBool(0.5), s.AddBool(0.5)
	}
	var d formula.DNF
	for i := range xs {
		for j := range ys {
			d = append(d, formula.MustClause(formula.Pos(xs[i]), formula.Pos(s.AddBool(0.5)), formula.Pos(ys[j])))
		}
	}
	for _, size := range []int{2, 8} {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		start := time.Now()
		_, err := ExactCtx(ctx, s, d, Options{Pool: workpool.New(size)})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("pool %d: err = %v, want context.DeadlineExceeded", size, err)
		}
		if el := time.Since(start); el > time.Second {
			t.Fatalf("pool %d: returned %v after a 50ms deadline", size, el)
		}
	}
}

// TestExactCacheAcrossRuns checks cross-answer sharing: a second
// evaluation over the same lineage through a shared cache answers from
// the memo table (root-level hit) and reports the traffic.
func TestExactCacheAcrossRuns(t *testing.T) {
	s := formula.NewSpace()
	d := hierarchicalDNF(30, 5, s)
	cache := formula.NewFragCache(0)
	first, err := ExactCtx(context.Background(), s, d, Options{Frags: cache})
	if err != nil {
		t.Fatal(err)
	}
	afterFirst := cache.CacheStats()
	if afterFirst.Misses == 0 {
		t.Fatal("first run recorded no cache misses")
	}
	second, err := ExactCtx(context.Background(), s, d, Options{Frags: cache})
	if err != nil {
		t.Fatal(err)
	}
	if second.Estimate != first.Estimate {
		t.Fatalf("cache changed estimate: %v vs %v", second.Estimate, first.Estimate)
	}
	if cache.CacheStats().Hits == afterFirst.Hits {
		t.Fatal("second run recorded no cache hits")
	}
	if second.Nodes >= first.Nodes {
		t.Fatalf("cached run built %d nodes, uncached %d — expected fewer", second.Nodes, first.Nodes)
	}
	// Cached and uncached evaluation must agree exactly.
	plain, err := ExactCtx(context.Background(), s, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Estimate != first.Estimate {
		t.Fatalf("cache-off %v != cache-on %v", plain.Estimate, first.Estimate)
	}
}
