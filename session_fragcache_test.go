package repro_test

import (
	"context"
	"math"
	"slices"
	"sync"
	"testing"

	"repro"
	"repro/internal/plan"
	"repro/internal/tpch"
)

// TestSessionsShareFragCache runs the same ranked query from eight
// concurrent sessions handed one prepared-fragment cache (run under
// -race in CI). Every session must produce exactly the baseline
// answers — fragment-cache entries are canonical and immutable, so
// racing sessions may only ever observe each other's finished
// preparations — and the shared cache must record cross-session hits.
func TestSessionsShareFragCache(t *testing.T) {
	s, rel := facadeWorkload(60)
	db := repro.NewDB(s, rel)
	ctx := context.Background()

	baselineSess := db.Session(repro.WithEps(1e-6), repro.WithForceLineage())
	baseline, err := baselineSess.Query("answers").GroupLineage(0).TopK(7).All(ctx)
	if err != nil {
		t.Fatal(err)
	}

	shared := repro.NewFragCache(0)
	const sessions = 8
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	results := make([][]repro.Answer, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := db.Session(repro.WithEps(1e-6), repro.WithForceLineage(),
				repro.WithSharedFragCache(shared))
			results[i], errs[i] = sess.Query("answers").GroupLineage(0).TopK(7).All(ctx)
		}()
	}
	wg.Wait()

	for i := 0; i < sessions; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if len(results[i]) != len(baseline) {
			t.Fatalf("session %d: %d answers, baseline %d", i, len(results[i]), len(baseline))
		}
		for j, a := range results[i] {
			b := baseline[j]
			if a.Vals[0] != b.Vals[0] || a.P != b.P || a.Res.Lo != b.Res.Lo || a.Res.Hi != b.Res.Hi {
				t.Fatalf("session %d answer %d: got %v (P=%v [%v,%v]), baseline %v (P=%v [%v,%v])",
					i, j, a.Vals, a.P, a.Res.Lo, a.Res.Hi, b.Vals, b.P, b.Res.Lo, b.Res.Hi)
			}
		}
	}
	if st := shared.CacheStats(); st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("degenerate sharing: hits=%d misses=%d", st.Hits, st.Misses)
	} else {
		t.Logf("shared fragment cache: %d hits, %d misses, %d entries", st.Hits, st.Misses, st.Entries)
	}
}

// TestExactRankedRunHitsSessionFragCache runs a ranked query twice on
// one default (exact) session: the second run must hit the session's
// FragCache, and the cache must change nothing a run reports — answers,
// their order, Float64bits(P) and rank steps equal the first run's and
// a fresh session's.
func TestExactRankedRunHitsSessionFragCache(t *testing.T) {
	gen := tpch.Generate(tpch.Config{SF: 0.002, ProbHigh: 1, Seed: 3})
	db := repro.NewDB(gen.Space, gen.Supplier, gen.Lineitem)
	node := &plan.TopK{Input: gen.Query("Q15"), K: 3}
	ctx := context.Background()

	var steps int64
	open := func() *repro.Session {
		return db.Session(repro.WithForceLineage(), repro.WithTrace(func(tr *repro.QueryTrace) { steps = tr.Rank.Steps }))
	}
	type run struct {
		answers []repro.Answer
		steps   int64
		cache   repro.CacheStats
	}
	exec := func(sess *repro.Session) run {
		before := sess.FragCache().CacheStats()
		answers, err := sess.Query(node).All(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return run{answers, steps, sess.FragCache().CacheStats().Sub(before)}
	}

	sess := open()
	first := exec(sess)
	second := exec(sess)
	fresh := exec(open())
	if len(first.answers) != 3 {
		t.Fatalf("%d answers, want 3", len(first.answers))
	}
	if second.cache.Hits == 0 {
		t.Fatalf("second exact ranked run made %d hits in %d session-cache lookups, want > 0",
			second.cache.Hits, second.cache.Lookups())
	}
	for _, c := range []struct {
		name string
		got  run
	}{{"second run", second}, {"fresh session", fresh}} {
		if c.got.steps != first.steps {
			t.Errorf("%s: %d rank steps, first run %d", c.name, c.got.steps, first.steps)
		}
		if len(c.got.answers) != len(first.answers) {
			t.Fatalf("%s: %d answers, first run %d", c.name, len(c.got.answers), len(first.answers))
		}
		for i, a := range c.got.answers {
			b := first.answers[i]
			if !slices.Equal(a.Vals, b.Vals) || math.Float64bits(a.P) != math.Float64bits(b.P) {
				t.Errorf("%s answer %d: %v P=%v, first run %v P=%v", c.name, i, a.Vals, a.P, b.Vals, b.P)
			}
		}
	}
}
