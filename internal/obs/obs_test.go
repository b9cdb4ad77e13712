package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMetricsNilSafe(t *testing.T) {
	var m *Metrics
	// Every recording method must be a no-op on a nil registry.
	m.RecordRoute("safe")
	m.RecordLineage(1, 2, 3)
	m.RecordRefineStep(5)
	m.RecordRankGrant()
	m.RecordRankDecided(true)
	m.RecordFragCache(false)
	m.RecordInterner(1, 2)
	m.RecordPoolSpawn()
	m.RecordPoolSpawnDone()
	m.RecordPoolInline()
	m.RecordBudgetExhausted()
	m.RecordQuery(time.Second, time.Millisecond)
	if got := m.Snapshot(); got.Queries != 0 {
		t.Fatalf("nil Metrics snapshot not zero: %+v", got)
	}
}

func TestMetricsRecordAndSnapshot(t *testing.T) {
	m := NewMetrics()
	m.RecordRoute("d-tree")
	m.RecordRoute("safe")
	m.RecordRoute("iq")
	m.RecordLineage(10, 200, 3000)
	m.RecordRefineStep(3)
	m.RecordRefineStep(7)
	m.RecordRankGrant()
	m.RecordRankDecided(true)
	m.RecordRankDecided(false)
	m.RecordFragCache(true)
	m.RecordFragCache(false)
	m.RecordInterner(5, 2)
	m.RecordPoolSpawn()
	m.RecordPoolInline()
	m.RecordBudgetExhausted()
	m.RecordQuery(1500*time.Microsecond, 200*time.Microsecond)

	s := m.Snapshot()
	if s.RouteLineage != 1 || s.RouteSafe != 1 || s.RouteIQ != 1 {
		t.Fatalf("routes = %d/%d/%d, want 1/1/1", s.RouteLineage, s.RouteSafe, s.RouteIQ)
	}
	if s.LineageAnswers != 10 || s.LineageClauses != 200 || s.LineageTuples != 3000 {
		t.Fatalf("lineage = %d/%d/%d", s.LineageAnswers, s.LineageClauses, s.LineageTuples)
	}
	if s.RefineSteps != 2 || s.DirtyPathLen.Sum != 10 {
		t.Fatalf("refine = %d steps, path sum %d", s.RefineSteps, s.DirtyPathLen.Sum)
	}
	if s.RankGrants != 1 || s.RankDecidedIn != 1 || s.RankDecidedOut != 1 {
		t.Fatalf("rank = %+v", s)
	}
	if s.FragCacheHits != 1 || s.FragCacheMisses != 1 {
		t.Fatalf("caches = %+v", s)
	}
	if s.InternerHits != 5 || s.InternerStored != 2 {
		t.Fatalf("interner = %d/%d", s.InternerHits, s.InternerStored)
	}
	if s.PoolSpawned != 1 || s.PoolInline != 1 || s.PoolActive != 1 {
		t.Fatalf("pool = %+v", s)
	}
	if s.BudgetExhausted != 1 || s.Queries != 1 {
		t.Fatalf("budget/queries = %d/%d", s.BudgetExhausted, s.Queries)
	}
	if s.QueryWallMicros.Sum != 1500 || s.FirstAnswerMicros.Sum != 200 {
		t.Fatalf("latency = %d/%d us", s.QueryWallMicros.Sum, s.FirstAnswerMicros.Sum)
	}
	if got := s.FragCache().HitRate(); got != 0.5 {
		t.Fatalf("frag hit rate = %v, want 0.5", got)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot not JSON-marshalable: %v", err)
	}
}

// TestMetricsViewDelta reads a delta window off the registry the one
// way there is: a later snapshot minus a baseline (Snapshot.Sub).
func TestMetricsViewDelta(t *testing.T) {
	m := NewMetrics()
	m.RecordRankGrant()
	m.RecordPoolSpawn()
	base := m.Snapshot()
	if got := m.Snapshot().Sub(base).RankGrants; got != 0 {
		t.Fatalf("fresh window grants = %d, want 0", got)
	}
	m.RecordRankGrant()
	m.RecordRankGrant()
	d := m.Snapshot().Sub(base)
	if d.RankGrants != 2 {
		t.Fatalf("window grants = %d, want 2", d.RankGrants)
	}
	if d.PoolActive != 1 {
		t.Fatalf("window pool active = %d, want the gauge's current 1", d.PoolActive)
	}
	if got := m.Snapshot().RankGrants; got != 3 {
		t.Fatalf("registry grants = %d, want 3", got)
	}
}

func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.RecordRefineStep(i % 17)
				m.RecordFragCache(i%2 == 0)
				m.RecordPoolSpawn()
				m.RecordPoolSpawnDone()
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if s.RefineSteps != 8000 || s.DirtyPathLen.Count != 8000 {
		t.Fatalf("steps = %d, hist count = %d", s.RefineSteps, s.DirtyPathLen.Count)
	}
	if s.FragCacheHits+s.FragCacheMisses != 8000 {
		t.Fatalf("cache lookups = %d", s.FragCacheHits+s.FragCacheMisses)
	}
	if s.PoolActive != 0 {
		t.Fatalf("pool active = %d, want 0", s.PoolActive)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 1000, -5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	if s.Sum != 0+1+2+3+4+1000+0 {
		t.Fatalf("sum = %d", s.Sum)
	}
	// 0 and -5 land in bucket 0; 1 in bucket 1; 2,3 in bucket 2; 4 in
	// bucket 3; 1000 (bit length 10) in bucket 10.
	want := map[int]int64{0: 2, 1: 1, 2: 2, 3: 1, 10: 1}
	for b, n := range want {
		if s.Buckets[b] != n {
			t.Fatalf("bucket %d = %d, want %d", b, s.Buckets[b], n)
		}
	}
	if got := s.Max(); got != (1<<10)-1 {
		t.Fatalf("max = %d, want %d", got, (1<<10)-1)
	}
	// Oversized values clamp into the last bucket instead of indexing
	// out of range.
	h.Observe(1 << 62)
	if got := h.Snapshot().Buckets[histBuckets-1]; got != 1 {
		t.Fatalf("overflow bucket = %d, want 1", got)
	}
}

func TestCacheStatsShape(t *testing.T) {
	s := CacheStats{Hits: 3, Misses: 1, Entries: 7}
	if s.Lookups() != 4 || s.HitRate() != 0.75 {
		t.Fatalf("lookups/rate = %d/%v", s.Lookups(), s.HitRate())
	}
	if (CacheStats{}).HitRate() != 0 {
		t.Fatal("empty HitRate should be 0")
	}
	d := s.Sub(CacheStats{Hits: 1, Misses: 1, Entries: 5})
	if d.Hits != 2 || d.Misses != 0 || d.Entries != 7 {
		t.Fatalf("delta = %+v", d)
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *QueryTrace
	tr.SetPlan("x", "safe")
	tr.AddStage("lineage", 1, time.Millisecond)
	tr.SetLineage(1, 2, 3)
	tr.SetRank("top-k", 5, 0, 10, 5, 5)
	tr.AddAnswer(AnswerTrace{Vals: "(1)"})
	tr.SetCaches(CacheStats{}, CacheStats{})
	tr.Finish(time.Second, 0, nil)
	if tr.Text() != "" || tr.String() != "" {
		t.Fatal("nil trace should render empty")
	}
}

func TestTraceRenderDeterministic(t *testing.T) {
	build := func(wall time.Duration) *QueryTrace {
		tr := &QueryTrace{}
		tr.SetPlan("lineage d-tree", "d-tree")
		tr.AddStage("lineage", 4, wall)
		tr.SetLineage(4, 40, 400)
		tr.AddStage("rank", 2, wall/2)
		tr.SetRank("top-k", 2, 0, 57, 2, 2)
		tr.AddAnswer(AnswerTrace{Vals: "(7)", P: 0.75, Lo: 0.7, Hi: 0.8, Steps: 12, DecidedAtStep: 31, Member: true})
		tr.AddAnswer(AnswerTrace{Vals: "(3)", P: 0.5, Lo: 0.45, Hi: 0.55, Steps: 9, DecidedAtStep: 57, Member: true})
		tr.SetCaches(CacheStats{Hits: 10, Misses: 2}, CacheStats{Hits: 1, Misses: 3, Entries: 3})
		tr.Finish(wall*2, wall/4, nil)
		return tr
	}
	// Text must not depend on timings; String must include them.
	a, b := build(time.Millisecond), build(7*time.Second)
	if a.Text() != b.Text() {
		t.Fatalf("Text differs under different timings:\n%s\nvs\n%s", a.Text(), b.Text())
	}
	txt := a.Text()
	for _, want := range []string{
		"route=d-tree", "plan: lineage d-tree",
		"stage lineage", "answers=4 clauses=40 tuples=400",
		"top-k k=2", "steps=57", "decided in=2 out=2",
		"[1] (7) P=0.750000 bounds=[0.700000,0.800000] steps=12 decided@31",
		"caches: frag 10/12 hits (83.3%) | intern 1/4 hits (25.0%)",
		"total: answers=2",
	} {
		if !strings.Contains(txt, want) {
			t.Fatalf("Text missing %q:\n%s", want, txt)
		}
	}
	if strings.Contains(txt, "wall=") {
		t.Fatalf("deterministic Text leaked timings:\n%s", txt)
	}
	if !strings.Contains(a.String(), "wall=") {
		t.Fatalf("String missing timings:\n%s", a.String())
	}
}

func TestTraceAnswerCap(t *testing.T) {
	tr := &QueryTrace{}
	for i := 0; i < maxAnswerTraces+10; i++ {
		tr.AddAnswer(AnswerTrace{Vals: "(x)", P: 0.5})
	}
	if tr.AnswersTotal != maxAnswerTraces+10 || len(tr.Answers) != maxAnswerTraces {
		t.Fatalf("total=%d detail=%d", tr.AnswersTotal, len(tr.Answers))
	}
	if !strings.Contains(tr.Text(), "... (10 more)") {
		t.Fatalf("render missing overflow marker:\n%s", tr.Text())
	}
}

func TestTraceErrRendered(t *testing.T) {
	tr := &QueryTrace{}
	tr.SetPlan("x", "d-tree")
	tr.Finish(time.Second, 0, errFake("boom"))
	if !strings.Contains(tr.Text(), "err=boom") {
		t.Fatalf("Text missing err:\n%s", tr.Text())
	}
}

type errFake string

func (e errFake) Error() string { return string(e) }
