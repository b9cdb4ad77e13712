// Package obs is the engine's observability layer: a stdlib-only
// metrics registry plus a per-query execution trace, threaded through
// every execution stage of the query path (planner, lineage pipeline,
// d-tree refinement, ranking schedulers, caches, worker pool).
//
// The package has two halves:
//
//   - Metrics — a registry of atomic counters, gauges and bounded
//     power-of-two histograms, owned per façade DB and updated from
//     every subsystem. Snapshot() freezes it into a plain, comparable,
//     JSON-marshalable struct (the serving layer's export shape, also
//     published via expvar by DB.PublishExpvar); Snapshot.Sub turns two
//     snapshots into the traffic recorded between them.
//   - QueryTrace (trace.go) — one query execution's EXPLAIN ANALYZE:
//     the routing line plus per-stage timings, per-answer refinement
//     outcomes, and cache traffic, rendered as a text tree.
//
// Every recording method is nil-safe: calling it on a nil *Metrics (or
// nil *QueryTrace) is a no-op costing one branch, so instrumented code
// carries no conditional plumbing and pays nothing when observability
// is disabled (most tests of internal/core and internal/rank run
// with a nil registry). With a registry attached, each event is one or
// two uncontended atomic adds.
//
// obs imports only the standard library, so every internal package
// (formula, workpool, core, rank, plan, pdb) and the façade can depend
// on it without cycles. CacheStats is the unified statistics shape the
// formula caches (FragCache, Interner) report through.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// CacheStats is the unified cache-statistics shape: cumulative lookup
// traffic plus current size. formula.FragCache and formula.Interner
// both report it from their CacheStats methods (the
// interner counts every first-seen clause as both a miss and a stored
// entry — it has no capacity bound and never evicts).
type CacheStats struct {
	// Hits and Misses count lookups that did / did not find an entry.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Entries is the number of entries currently stored.
	Entries int64 `json:"entries"`
}

// Lookups returns the total lookup count.
func (s CacheStats) Lookups() int64 { return s.Hits + s.Misses }

// HitRate returns Hits/Lookups in [0, 1], or 0 when the cache was
// never consulted.
func (s CacheStats) HitRate() float64 {
	if n := s.Lookups(); n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

// Sub returns the delta s − base, the traffic between two snapshots of
// one cache. Entries is kept from s (a size, not a cumulative count).
func (s CacheStats) Sub(base CacheStats) CacheStats {
	return CacheStats{Hits: s.Hits - base.Hits, Misses: s.Misses - base.Misses, Entries: s.Entries}
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add adds n to the counter.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (it may go up and down).
type Gauge struct{ v atomic.Int64 }

// Add adds n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets bounds every Histogram: bucket b counts observations
// whose bit length is b (i.e. values in [2^(b-1), 2^b − 1]; bucket 0
// counts zeros), so 40 buckets cover [0, 2^39) — microsecond latencies
// up to ~6 days, step counts up to ~5·10^11.
const histBuckets = 40

// Histogram is a bounded power-of-two histogram: constant memory,
// lock-free, two atomic adds per observation. It trades precision for
// a guarantee: recording can never allocate or contend on a lock, so
// it is safe on the hottest paths.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value (negative values count as 0).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

func bucketOf(v int64) int {
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Snapshot freezes the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
		Buckets: make([]int64, histBuckets),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is a frozen Histogram.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	// Buckets[b] counts observations of bit length b (bucket 0 = zeros,
	// bucket b = values in [2^(b−1), 2^b − 1]).
	Buckets []int64 `json:"buckets"`
}

// Mean returns the average observed value (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Max returns an upper bound on the largest observed value: the top of
// the highest non-empty bucket (0 when empty).
func (h HistogramSnapshot) Max() int64 {
	for b := len(h.Buckets) - 1; b >= 1; b-- {
		if h.Buckets[b] > 0 {
			if b >= 63 {
				return int64(^uint64(0) >> 1)
			}
			return (int64(1) << b) - 1
		}
	}
	return 0
}

// Sub returns the delta h − base, bucket-wise.
func (h HistogramSnapshot) Sub(base HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{
		Count:   h.Count - base.Count,
		Sum:     h.Sum - base.Sum,
		Buckets: make([]int64, len(h.Buckets)),
	}
	for i := range h.Buckets {
		out.Buckets[i] = h.Buckets[i]
		if i < len(base.Buckets) {
			out.Buckets[i] -= base.Buckets[i]
		}
	}
	return out
}

// Metrics is the engine-wide registry, one per façade DB. Every field
// is safe for concurrent update; recording methods on a nil *Metrics
// are no-ops, so instrumented code passes the registry (or nil) down
// unconditionally.
type Metrics struct {
	// Query-level counters, recorded by the façade per execution.
	Queries Counter

	// Planner route taken, recorded per plan execution.
	RouteLineage Counter
	RouteSafe    Counter
	RouteIQ      Counter

	// Lineage pipeline output volumes.
	LineageAnswers Counter
	LineageClauses Counter
	LineageTuples  Counter

	// d-tree refinement: resumable Refiner steps and the length of the
	// dirty path each step's bound propagation walked.
	RefineSteps  Counter
	DirtyPathLen Histogram

	// Ranking schedulers: grants issued and memberships proven.
	RankGrants     Counter
	RankDecidedIn  Counter
	RankDecidedOut Counter

	// Cache traffic, recorded per lookup by internal/core (FragCache)
	// and per pipeline by the façade (Interner deltas).
	FragCacheHits   Counter
	FragCacheMisses Counter
	InternerHits    Counter
	InternerStored  Counter

	// Worker pool: tasks offloaded to goroutines vs run inline on the
	// caller (saturation signal), and offloaded tasks in flight.
	PoolSpawned Counter
	PoolInline  Counter
	PoolActive  Gauge

	// Budget exhaustions (one per evaluation that hit its budget).
	BudgetExhausted Counter

	// Fault isolation: panics contained into errors (counted once, at
	// the first recovery point).
	PanicsRecovered Counter

	// Per-query latency in microseconds: full wall clock and time to
	// first answer (streamed runs only).
	QueryWallMicros   Histogram
	FirstAnswerMicros Histogram
}

// NewMetrics returns an empty registry. The zero value is also ready
// to use; the constructor exists for symmetry with the other
// subsystems.
func NewMetrics() *Metrics { return &Metrics{} }

// RecordRoute counts one execution of a plan on the named route
// ("safe", "iq", anything else is the lineage route).
func (m *Metrics) RecordRoute(route string) {
	if m == nil {
		return
	}
	switch route {
	case "safe":
		m.RouteSafe.Inc()
	case "iq":
		m.RouteIQ.Inc()
	default:
		m.RouteLineage.Inc()
	}
}

// RecordLineage counts one lineage materialization's output volumes.
func (m *Metrics) RecordLineage(answers, clauses, tuples int64) {
	if m == nil {
		return
	}
	m.LineageAnswers.Add(answers)
	m.LineageClauses.Add(clauses)
	m.LineageTuples.Add(tuples)
}

// RecordRefineStep counts one Refiner leaf refinement and the length
// of the dirty path its bound propagation walked (0 on paths that do
// not propagate incrementally).
func (m *Metrics) RecordRefineStep(pathLen int) {
	if m == nil {
		return
	}
	m.RefineSteps.Inc()
	m.DirtyPathLen.Observe(int64(pathLen))
}

// RecordRankGrant counts one scheduler grant.
func (m *Metrics) RecordRankGrant() {
	if m == nil {
		return
	}
	m.RankGrants.Inc()
}

// RecordRankDecided counts one membership proven by bound separation.
func (m *Metrics) RecordRankDecided(in bool) {
	if m == nil {
		return
	}
	if in {
		m.RankDecidedIn.Inc()
	} else {
		m.RankDecidedOut.Inc()
	}
}

// RecordFragCache counts one fragment cache lookup (a preparation or
// an exact subformula).
func (m *Metrics) RecordFragCache(hit bool) {
	if m == nil {
		return
	}
	if hit {
		m.FragCacheHits.Inc()
	} else {
		m.FragCacheMisses.Inc()
	}
}

// RecordInterner absorbs one pipeline's interner traffic (hits and
// newly stored clauses since the pipeline borrowed it).
func (m *Metrics) RecordInterner(hits, stored int64) {
	if m == nil {
		return
	}
	m.InternerHits.Add(hits)
	m.InternerStored.Add(stored)
}

// RecordPoolSpawn counts one task offloaded to a pool goroutine and
// marks it in flight; RecordPoolSpawnDone retires it.
func (m *Metrics) RecordPoolSpawn() {
	if m == nil {
		return
	}
	m.PoolSpawned.Inc()
	m.PoolActive.Add(1)
}

// RecordPoolSpawnDone retires an offloaded task.
func (m *Metrics) RecordPoolSpawnDone() {
	if m == nil {
		return
	}
	m.PoolActive.Add(-1)
}

// RecordPoolInline counts one task the pool ran on the calling
// goroutine (tokens exhausted, or a single-task batch).
func (m *Metrics) RecordPoolInline() {
	if m == nil {
		return
	}
	m.PoolInline.Inc()
}

// RecordBudgetExhausted counts one evaluation hitting its budget.
func (m *Metrics) RecordBudgetExhausted() {
	if m == nil {
		return
	}
	m.BudgetExhausted.Inc()
}

// RecordPanicRecovered counts one panic contained into an error. It is
// recorded at the first recovery point only — layers that re-contain an
// already-promoted fault.PanicError must not call it again.
func (m *Metrics) RecordPanicRecovered() {
	if m == nil {
		return
	}
	m.PanicsRecovered.Inc()
}

// RecordQuery counts one query execution with its wall-clock time and
// (when positive, i.e. on streamed runs that yielded at least one
// answer) its time to first answer.
func (m *Metrics) RecordQuery(wall, firstAnswer time.Duration) {
	if m == nil {
		return
	}
	m.Queries.Inc()
	m.QueryWallMicros.Observe(wall.Microseconds())
	if firstAnswer > 0 {
		m.FirstAnswerMicros.Observe(firstAnswer.Microseconds())
	}
}

// Snapshot freezes the registry into the flat export shape: plain
// values, JSON-marshalable, comparable with Sub. This is what
// DB.PublishExpvar publishes and what the serving layer will scrape.
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	return Snapshot{
		Queries:           m.Queries.Value(),
		RouteLineage:      m.RouteLineage.Value(),
		RouteSafe:         m.RouteSafe.Value(),
		RouteIQ:           m.RouteIQ.Value(),
		LineageAnswers:    m.LineageAnswers.Value(),
		LineageClauses:    m.LineageClauses.Value(),
		LineageTuples:     m.LineageTuples.Value(),
		RefineSteps:       m.RefineSteps.Value(),
		DirtyPathLen:      m.DirtyPathLen.Snapshot(),
		RankGrants:        m.RankGrants.Value(),
		RankDecidedIn:     m.RankDecidedIn.Value(),
		RankDecidedOut:    m.RankDecidedOut.Value(),
		FragCacheHits:     m.FragCacheHits.Value(),
		FragCacheMisses:   m.FragCacheMisses.Value(),
		InternerHits:      m.InternerHits.Value(),
		InternerStored:    m.InternerStored.Value(),
		PoolSpawned:       m.PoolSpawned.Value(),
		PoolInline:        m.PoolInline.Value(),
		PoolActive:        m.PoolActive.Value(),
		BudgetExhausted:   m.BudgetExhausted.Value(),
		PanicsRecovered:   m.PanicsRecovered.Value(),
		QueryWallMicros:   m.QueryWallMicros.Snapshot(),
		FirstAnswerMicros: m.FirstAnswerMicros.Snapshot(),
	}
}

// Snapshot is a frozen Metrics registry: the flat export shape.
type Snapshot struct {
	Queries int64 `json:"queries"`

	RouteLineage int64 `json:"route_lineage"`
	RouteSafe    int64 `json:"route_safe"`
	RouteIQ      int64 `json:"route_iq"`

	LineageAnswers int64 `json:"lineage_answers"`
	LineageClauses int64 `json:"lineage_clauses"`
	LineageTuples  int64 `json:"lineage_tuples"`

	RefineSteps  int64             `json:"refine_steps"`
	DirtyPathLen HistogramSnapshot `json:"dirty_path_len"`

	RankGrants     int64 `json:"rank_grants"`
	RankDecidedIn  int64 `json:"rank_decided_in"`
	RankDecidedOut int64 `json:"rank_decided_out"`

	// ProbCacheHits and ProbCacheMisses are always 0.
	//
	// Deprecated: named only by bench/; exact lookups count as
	// FragCacheHits and FragCacheMisses.
	ProbCacheHits   int64 `json:"prob_cache_hits"`
	ProbCacheMisses int64 `json:"prob_cache_misses"`
	FragCacheHits   int64 `json:"frag_cache_hits"`
	FragCacheMisses int64 `json:"frag_cache_misses"`
	InternerHits    int64 `json:"interner_hits"`
	InternerStored  int64 `json:"interner_stored"`

	PoolSpawned int64 `json:"pool_spawned"`
	PoolInline  int64 `json:"pool_inline"`
	PoolActive  int64 `json:"pool_active"`

	BudgetExhausted int64 `json:"budget_exhausted"`
	PanicsRecovered int64 `json:"panics_recovered"`

	QueryWallMicros   HistogramSnapshot `json:"query_wall_us"`
	FirstAnswerMicros HistogramSnapshot `json:"first_answer_us"`
}

// Sub returns the field-wise delta s − base. PoolActive, a gauge, is
// kept from s.
func (s Snapshot) Sub(base Snapshot) Snapshot {
	return Snapshot{
		Queries:           s.Queries - base.Queries,
		RouteLineage:      s.RouteLineage - base.RouteLineage,
		RouteSafe:         s.RouteSafe - base.RouteSafe,
		RouteIQ:           s.RouteIQ - base.RouteIQ,
		LineageAnswers:    s.LineageAnswers - base.LineageAnswers,
		LineageClauses:    s.LineageClauses - base.LineageClauses,
		LineageTuples:     s.LineageTuples - base.LineageTuples,
		RefineSteps:       s.RefineSteps - base.RefineSteps,
		DirtyPathLen:      s.DirtyPathLen.Sub(base.DirtyPathLen),
		RankGrants:        s.RankGrants - base.RankGrants,
		RankDecidedIn:     s.RankDecidedIn - base.RankDecidedIn,
		RankDecidedOut:    s.RankDecidedOut - base.RankDecidedOut,
		FragCacheHits:     s.FragCacheHits - base.FragCacheHits,
		FragCacheMisses:   s.FragCacheMisses - base.FragCacheMisses,
		InternerHits:      s.InternerHits - base.InternerHits,
		InternerStored:    s.InternerStored - base.InternerStored,
		PoolSpawned:       s.PoolSpawned - base.PoolSpawned,
		PoolInline:        s.PoolInline - base.PoolInline,
		PoolActive:        s.PoolActive,
		BudgetExhausted:   s.BudgetExhausted - base.BudgetExhausted,
		PanicsRecovered:   s.PanicsRecovered - base.PanicsRecovered,
		QueryWallMicros:   s.QueryWallMicros.Sub(base.QueryWallMicros),
		FirstAnswerMicros: s.FirstAnswerMicros.Sub(base.FirstAnswerMicros),
	}
}

// FragCache returns the snapshot's fragment-cache traffic in the
// unified CacheStats shape (Entries unknown at registry level: caches
// are session-owned).
func (s Snapshot) FragCache() CacheStats {
	return CacheStats{Hits: s.FragCacheHits, Misses: s.FragCacheMisses}
}
