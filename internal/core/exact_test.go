package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/formula"
	"repro/internal/randdnf"
	"repro/internal/workpool"
)

// diffExact runs exact evaluation on the shared step and on refExact —
// the pipeline it replaced, in oracle_test.go — and requires them to be
// indistinguishable. At pool 1 everything is deterministic and
// everything must agree: the estimate to the bit, the node count, the
// error, and (with a memo each: a FragCache for the step, refExact's
// own refMemo for the reference) the hit and miss counts. At pools 2
// and 8 the estimate must still agree to the bit, and the node count
// too unless racing lookups of a shared cache decide it; an evaluation
// under a budget is compared at pool 1 only, because which sibling sees
// the exhausted counter first — and whether any does — is a race by
// design.
func diffExact(t testing.TB, s *formula.Space, d formula.DNF, opt Options, cached bool) {
	t.Helper()
	ctx := context.Background()
	newCache := func() *formula.FragCache {
		if !cached {
			return nil
		}
		return formula.NewFragCache(0)
	}
	var memo *refMemo
	if cached {
		memo = newRefMemo()
	}
	opt.Pool = workpool.New(1)
	ref := opt
	opt.Frags = newCache()
	want, wantErr := refExact(ctx, s, d, ref, memo)
	got, err := ExactCtx(ctx, s, d, opt)
	if !errors.Is(err, wantErr) || !errors.Is(wantErr, err) {
		t.Fatalf("errors diverged: %v, reference %v\n%s", err, wantErr, d.String(s))
	}
	if math.Float64bits(got.Estimate) != math.Float64bits(want.Estimate) || got != want {
		t.Fatalf("results diverged:\nstep      %+v\nreference %+v\n%s", got, want, d.String(s))
	}
	if cached {
		if st := opt.Frags.CacheStats(); st.Hits != memo.hits || st.Misses != memo.misses {
			t.Fatalf("memo traffic diverged: %d hits %d misses, reference %d/%d\n%s", st.Hits, st.Misses, memo.hits, memo.misses, d.String(s))
		}
	}
	if opt.MaxWork > 0 || opt.MaxNodes > 0 {
		return
	}
	for _, size := range []int{2, 8} {
		opt.Pool = workpool.New(size)
		opt.Frags = newCache()
		got, err := ExactCtx(ctx, s, d, opt)
		if err != nil {
			t.Fatalf("pool %d: %v", size, err)
		}
		if math.Float64bits(got.Estimate) != math.Float64bits(want.Estimate) {
			t.Fatalf("pool %d: estimate %v, reference %v\n%s", size, got.Estimate, want.Estimate, d.String(s))
		}
		if !cached && got.Nodes != want.Nodes {
			t.Fatalf("pool %d: %d nodes, reference %d\n%s", size, got.Nodes, want.Nodes, d.String(s))
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
// moving exact evaluation onto figure1.go's step and the construction
// flags: tagged and untagged variables, Boolean and four-valued
// domains, work and node cuts, with and without a memo — every
// combination on fresh seeds, plus instances wide enough to fan out on
// the pool.
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
	// Past parMinClauses the children really run on pool goroutines.
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
