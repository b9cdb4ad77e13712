package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/formula"
	"repro/internal/randdnf"
)

// prepCorpus is one random corpus of the preparation property tests:
// a generator configuration and the evaluation options it is traced
// under.
type prepCorpus struct {
	cfg randdnf.Config
	opt Options
}

// prepCorpora are the random corpora the preparation hot path is traced
// over (seed 2000·index + k generates a corpus's k-th formula).
var prepCorpora = []prepCorpus{
	{randdnf.Default(), Options{Eps: 0.01, Kind: Absolute}},
	{randdnf.Default(), Options{Eps: 0.05, Kind: Relative}},
	{randdnf.Config{Vars: 14, Clauses: 20, MaxWidth: 3, MaxDomain: 2, MinProb: 0.05, MaxProb: 0.6},
		Options{Eps: 1e-4, Kind: Absolute}},
	// Multi-valued domains exercise the prepared-restrict dedup.
	{randdnf.Config{Vars: 12, Clauses: 18, MaxWidth: 3, MaxDomain: 4, MinProb: 0.05, MaxProb: 0.5},
		Options{Eps: 1e-3, Kind: Absolute}},
	// A work budget cuts the trace mid-tree: warm cache hits must
	// replay the reference work charge exactly or the cut moves.
	{randdnf.Config{Vars: 16, Clauses: 24, MaxWidth: 4, MaxDomain: 2, MinProb: 0.3, MaxProb: 0.7},
		Options{Eps: 1e-9, Kind: Absolute, MaxWork: 4000}},
}

// Differential property for the preparation hot path: the
// fragment-cached pipeline — construction-aware Normalize /
// RemoveSubsumed skips, prepared restrict, pooled scratch, memoized
// decompositions, and warm cache hits replaying stored bounds and work
// — must be indistinguishable from the original pipeline
// (refRefiner, oracle_test.go) across entire refinement traces: bounds
// after every step, step counts, errors and Results, bitwise. Each trace runs twice against one
// shared cache (cold, then fully warm), so both the store and the
// replay sides of every cache entry are pinned, including the MaxWork
// budget variant whose trace depends on exact work accounting.
func TestPrepareCachedMatchesReferenceProperty(t *testing.T) {
	traces := 0
	for vi, v := range prepCorpora {
		for seed := int64(0); seed < 16; seed++ {
			// One cache per seed: a cache is bound to one Space, and
			// each seed generates its own.
			s, d := randdnf.Generate(v.cfg, 2000*int64(vi)+seed)
			opt := v.opt
			opt.Frags = formula.NewFragCache(0)
			diffTrace(t, s, d, opt, "variant %d seed %d cold", vi, seed)
			diffTrace(t, s, d, opt, "variant %d seed %d warm", vi, seed)
			traces += 2
		}
	}
	// Guarantees sharing one cache over one Space: the prepared form
	// does not depend on Eps or Kind, so each setting still matches its
	// own reference on entries and decisions the others recorded.
	settings := []Options{
		{Eps: 0.01, Kind: Absolute},
		{Eps: 0.05, Kind: Relative},
		{Eps: 1e-3, Kind: Absolute},
	}
	for seed := int64(0); seed < 10; seed++ {
		s, d := randdnf.Generate(randdnf.Default(), 5000+seed)
		frags := formula.NewFragCache(0)
		for ai, opt := range settings {
			opt.Frags = frags
			diffTrace(t, s, d, opt, "setting %d seed %d cold", ai, seed)
			diffTrace(t, s, d, opt, "setting %d seed %d warm", ai, seed)
			traces += 2
		}
	}
	// Exact evaluation memoizes in the same cache under variantExact: a
	// cache it filled first must go unnoticed by the ε > 0 traces, their
	// work charges included.
	for seed := int64(0); seed < 10; seed++ {
		s, d := randdnf.Generate(randdnf.Config{Vars: 16, Clauses: 24, MaxWidth: 4, MaxDomain: 2, MinProb: 0.3, MaxProb: 0.7}, 6000+seed)
		frags := formula.NewFragCache(0)
		if _, err := ExactCtx(context.Background(), s, d, Options{Frags: frags}); err != nil {
			t.Fatalf("exact seed %d: %v", seed, err)
		}
		for oi, opt := range []Options{{Eps: 0.005, Kind: Absolute}, {Eps: 1e-9, Kind: Absolute, MaxWork: 4000}} {
			opt.Frags = frags
			diffTrace(t, s, d, opt, "after exact %d seed %d", oi, seed)
			traces++
		}
	}
	if traces < 200 {
		t.Fatalf("only %d differential traces, the property demands ≥ 200", traces)
	}
}

// The one-shot Approx entry point must be indistinguishable, cold and
// warm, from Approx without a fragment cache.
func TestApproxFragCacheMatchesReference(t *testing.T) {
	frags := formula.NewFragCache(0)
	for seed := int64(0); seed < 25; seed++ {
		s, d := randdnf.Generate(randdnf.Default(), 7000+seed)
		opt := Options{Eps: 0.01, Kind: Absolute}
		refRes, refErr := ApproxCtx(context.Background(), s, d, opt)
		opt.Frags = frags
		for run := 0; run < 2; run++ {
			res, err := ApproxCtx(context.Background(), s, d, opt)
			if !errors.Is(err, refErr) && !errors.Is(refErr, err) {
				t.Fatalf("seed %d run %d: errors diverged: %v vs %v", seed, run, err, refErr)
			}
			if res != refRes {
				t.Fatalf("seed %d run %d: results diverged:\ncached    %+v\nreference %+v", seed, run, res, refRes)
			}
		}
	}
	if frags.CacheStats().Hits == 0 {
		t.Fatal("warm reruns produced no fragment-cache hits")
	}
}

// Eight evaluations sharing one fragment cache concurrently (run under
// -race) must each produce exactly the bounds of an isolated run
// without a cache: entries are canonical, immutable and deterministic,
// so racing writers converge on identical values.
func TestFragCacheSharedAcrossConcurrentEvaluations(t *testing.T) {
	const workers = 8
	// One Space (a fragment cache must never span Spaces), overlapping
	// clause windows of one big formula — maximal key overlap across
	// traces and workers.
	s, big := randdnf.Generate(randdnf.Config{
		Vars: 30, Clauses: 44, MaxWidth: 3, MaxDomain: 2, MinProb: 0.05, MaxProb: 0.6,
	}, 9000)
	opt := Options{Eps: 0.005, Kind: Absolute}
	type trace struct {
		d formula.DNF
		r Result
	}
	var traces []trace
	for off := 0; off+20 <= len(big); off += 2 {
		d := big[off : off+20].Clone().Normalize()
		r, err := ApproxCtx(context.Background(), s, d, opt)
		if err != nil {
			t.Fatalf("reference trace at offset %d: %v", off, err)
		}
		traces = append(traces, trace{d: d, r: r})
	}
	frags := formula.NewFragCache(0)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := opt
			o.Frags = frags
			for i, tr := range traces {
				res, err := ApproxCtx(context.Background(), s, tr.d, o)
				if err != nil {
					errs[w] = err
					return
				}
				if res.Lo != tr.r.Lo || res.Hi != tr.r.Hi || res.Estimate != tr.r.Estimate ||
					res.Nodes != tr.r.Nodes || res.Converged != tr.r.Converged {
					errs[w] = fmt.Errorf("bounds diverged from reference on trace %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if st := frags.CacheStats(); st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("degenerate sharing: hits=%d misses=%d", st.Hits, st.Misses)
	}
}
