package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/formula"
	"repro/internal/randdnf"
)

// diffExact runs exact evaluation — the Refiner's exact mode — and
// refExact, the recursive pipeline it replaced (oracle_test.go), and
// requires them to be indistinguishable on every run that completes:
// the estimate to the bit, the whole Result (Nodes included), and, with
// a memo each (a FragCache for the Refiner, refExact's own refMemo),
// the hit and miss counts.
//
// A run under a budget is held to the unbudgeted reference when it
// completes, and compared only on its error and its interval when it
// is cut: it must fail with ErrBudget at [0, 1], not converged. The two
// pipelines do not spend a budget at the same moments — the Refiner
// charges a step's children together, tests the budget between steps
// and leaves its prepared root out of MaxNodes — so a run at the
// budget's edge may complete on one side and be cut on the other.
func diffExact(t testing.TB, s *formula.Space, d formula.DNF, opt Options, cached bool) {
	t.Helper()
	ctx := context.Background()
	var memo *refMemo
	if cached {
		memo, opt.Frags = newRefMemo(), formula.NewFragCache(0)
	}
	ref := opt
	ref.MaxNodes, ref.MaxWork = 0, 0
	want, wantErr := refExact(ctx, s, d, ref, memo)
	if wantErr != nil {
		t.Fatalf("reference: %v\n%s", wantErr, d.String(s))
	}
	got, err := ExactCtx(ctx, s, d, opt)
	if err != nil && (opt.MaxWork > 0 || opt.MaxNodes > 0) {
		if !errors.Is(err, ErrBudget) || got.Lo != 0 || got.Hi != 1 || got.Converged {
			t.Fatalf("cut run: %v %+v, want ErrBudget at [0, 1]\n%s", err, got, d.String(s))
		}
		return
	}
	if err != nil {
		t.Fatalf("%v\n%s", err, d.String(s))
	}
	if math.Float64bits(got.Estimate) != math.Float64bits(want.Estimate) || got != want {
		t.Fatalf("results diverged:\nrefiner   %+v\nreference %+v\n%s", got, want, d.String(s))
	}
	if cached {
		if st := opt.Frags.CacheStats(); st.Hits != memo.hits || st.Misses != memo.misses {
			t.Fatalf("memo traffic diverged: %d hits %d misses, reference %d/%d\n%s", st.Hits, st.Misses, memo.hits, memo.misses, d.String(s))
		}
	}
}

// exactVariant decodes the option half of a differential case: bit 2
// picks a memo; budget, when non-zero, cuts the run by work (bit 3
// clear) or by nodes (bit 3 set). Bits 0 and 1 once picked settings
// the evaluator no longer has; they stay in the encoding so the
// committed fuzz corpus keeps its meaning, and cases differing only in
// them now repeat one another.
func exactVariant(flags uint8, budget uint16) (opt Options, cached bool) {
	if flags&8 != 0 {
		opt.MaxNodes = int(budget)
	} else {
		opt.MaxWork = int(budget)
	}
	return opt, flags&4 != 0
}

// TestExactMatchesReferencePipeline is the differential property behind
// moving exact evaluation onto figure1.go's step, the construction
// flags and the Refiner: tagged and untagged variables, Boolean and
// four-valued domains, work and node cuts, with and without a memo —
// every combination on fresh seeds, plus wider instances.
func TestExactMatchesReferencePipeline(t *testing.T) {
	cfgs := []randdnf.Config{
		{Vars: 12, Clauses: 16, MaxWidth: 3, MaxDomain: 2, MinProb: 0.1, MaxProb: 0.9},
		{Vars: 12, Clauses: 18, MaxWidth: 3, MaxDomain: 4, MinProb: 0.05, MaxProb: 0.5},
		{Vars: 14, Clauses: 20, MaxWidth: 3, MaxDomain: 2, MinProb: 0.05, MaxProb: 0.6, TagEvery: 3},
		{Vars: 12, Clauses: 14, MaxWidth: 4, MaxDomain: 4, MinProb: 0.05, MaxProb: 0.5, TagEvery: 2},
	}
	budgets := []uint16{0, 0, 40, 300}
	runs := 0
	for ci, cfg := range cfgs {
		for flags := uint8(0); flags < 16; flags++ {
			for seed := int64(0); seed < 32; seed++ {
				s, d := randdnf.Generate(cfg, 10_000*int64(ci)+100*int64(flags)+seed)
				opt, cached := exactVariant(flags, budgets[seed%4])
				diffExact(t, s, d, opt, cached)
				runs++
			}
		}
	}
	for seed := int64(0); seed < 24; seed++ {
		cfg := randdnf.Config{Vars: 40, Clauses: 72, MaxWidth: 3, MaxDomain: 2, MinProb: 0.05, MaxProb: 0.6}
		if seed%2 == 1 {
			cfg.MaxDomain, cfg.TagEvery = 3, 3
		}
		s, d := randdnf.Generate(cfg, 90_000+seed)
		opt, cached := exactVariant(uint8(seed%8), 0)
		diffExact(t, s, d, opt, cached)
		runs++
	}
	if runs < 2000 {
		t.Fatalf("only %d differential runs, the property demands ≥ 2000", runs)
	}
}

// FuzzExactMatchesReferencePipeline is the same comparison over byte-
// decoded tagged DNFs (decodeTaggedDNF) and fuzzed options.
func FuzzExactMatchesReferencePipeline(f *testing.F) {
	f.Add([]byte{4, 2, 0, 1, 0, 1, 1, 0, 2, 1, 0, 3, 1, 1, 2, 1, 1, 3}, uint8(0), uint16(0))                // 2×2 product
	f.Add([]byte{6, 3, 0, 1, 2, 0, 1, 2, 2, 0, 1, 2, 1, 3, 2, 3, 4, 2, 0, 5, 2, 1, 5}, uint8(5), uint16(0)) // R-S-T chain, cached
	f.Add([]byte{5, 17, 1, 2, 3, 4, 5, 3, 0, 1, 2, 3, 1, 2, 3, 4}, uint8(2), uint16(12))                    // an untagged variable, work cut
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(9), uint16(7))                       // node cut
	f.Fuzz(func(t *testing.T, data []byte, flags uint8, budget uint16) {
		s, d := decodeTaggedDNF(data)
		opt, cached := exactVariant(flags, budget)
		diffExact(t, s, d, opt, cached)
	})
}

// TestExactGridsMatchReference adds the R(x) S(x,y) T(y) grids at tiny
// p (tinyGrid) to the differential corpus. P is below ApproxCond's
// absolute 1e-12 slack on every one of them, so an exact path that
// consulted that stop test would end at an interval: a plain Refiner at
// Eps 0 is Done on 3×3 at p = 1e-5 at its first bounds, [3e-15, 9e-15].
// Exact evaluation must refine to a point, bitwise refExact's.
func TestExactGridsMatchReference(t *testing.T) {
	for _, side := range []int{3, 5, 8} {
		for _, p := range []float64{1e-5, 1e-9} {
			s, d := tinyGrid(side, p)
			for _, cached := range []bool{false, true} {
				diffExact(t, s, d, Options{}, cached)
			}
			res, err := ExactCtx(context.Background(), s, d, Options{})
			if err != nil || !res.Exact || !res.Converged || res.Lo != res.Hi {
				t.Fatalf("%d×%d at p=%g: %+v (%v), want a converged point", side, side, p, res, err)
			}
		}
	}
}

// TestExactCachePersisted: exact evaluation's entries survive
// FragCache.Save and LoadFragCache (format v3, their own variant). Over
// the reloaded cache every evaluation misses nothing and repeats a warm
// rerun on the saved cache exactly, so P keeps the bits of the run that
// filled it — the warm start a restarted daemon's exact queries get.
func TestExactCachePersisted(t *testing.T) {
	s, big := randdnf.Generate(randdnf.Config{
		Vars: 30, Clauses: 44, MaxWidth: 3, MaxDomain: 2, MinProb: 0.05, MaxProb: 0.6,
	}, 9100)
	var ds []formula.DNF
	for off := 0; off+20 <= len(big); off += 4 {
		ds = append(ds, big[off:off+20])
	}
	filled := formula.NewFragCache(0)
	cold := make([]Result, len(ds))
	for i, d := range ds {
		var err error
		if cold[i], err = ExactCtx(context.Background(), s, d, Options{Frags: filled}); err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
	}
	var buf bytes.Buffer
	if err := filled.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := formula.LoadFragCache(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != filled.Len() || loaded.Len() == 0 {
		t.Fatalf("reloaded %d entries, saved %d", loaded.Len(), filled.Len())
	}
	for i, d := range ds {
		warm, err := ExactCtx(context.Background(), s, d, Options{Frags: filled})
		if err != nil {
			t.Fatalf("window %d warm: %v", i, err)
		}
		before := loaded.CacheStats()
		got, err := ExactCtx(context.Background(), s, d, Options{Frags: loaded})
		if err != nil {
			t.Fatalf("window %d reloaded: %v", i, err)
		}
		if misses := loaded.CacheStats().Misses - before.Misses; misses != 0 {
			t.Fatalf("window %d: %d misses on the reloaded cache", i, misses)
		}
		if got != warm || math.Float64bits(got.Estimate) != math.Float64bits(cold[i].Estimate) {
			t.Fatalf("window %d diverged:\nreloaded %+v\nwarm     %+v\ncold     %+v", i, got, warm, cold[i])
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
	s, d := hierarchicalLineage(30, 5)
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
