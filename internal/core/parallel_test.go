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
// compilation decomposes it into wide independent-or nodes.
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

// TestParallelApproxMatchesSequential: evaluation runs on the calling
// goroutine, so Options.Pool, which is not consulted, must leave bounds
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
	// live timeout races the evaluation and loses on fast hardware).
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

// TestExactDeadlineSticky: exact evaluation of a bipartite grid
// (x_i ∧ e_ij ∧ y_j, one connected component, exponentially many
// Shannon branches) cannot finish, so a 50 ms deadline must end it —
// the Refiner polls its context on every step.
func TestExactDeadlineSticky(t *testing.T) {
	s, d := tinyGrid(17, 0.5) // 289 clauses
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := ExactCtx(ctx, s, d, Options{})
	if !errors.Is(err, context.DeadlineExceeded) || res.Lo != 0 || res.Hi != 1 {
		t.Fatalf("err = %v at [%v, %v], want context.DeadlineExceeded at [0, 1]", err, res.Lo, res.Hi)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("returned %v after a 50ms deadline", el)
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
