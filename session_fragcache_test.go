package repro_test

import (
	"context"
	"sync"
	"testing"

	"repro"
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
