package repro_test

import (
	"context"
	"expvar"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/pdb"
	"repro/internal/plan"
	"repro/internal/tpch"
)

// obsQ15Config is the TPC-H instance of obsQ15. Its tuple
// probabilities stop at 0.5: with probabilities up to 1 the leaf
// bounds decide the top-3 before any refinement step, and the trace
// would show no rank work.
var obsQ15Config = tpch.Config{SF: 0.002, ProbHigh: 0.5, Seed: 3}

// obsQ15 builds a façade DB over a deterministic TPC-H instance and
// the ranked Q15 plan IR (top-3 suppliers by confidence), forced onto
// the lineage route — the acceptance workload of the observability
// layer.
func obsQ15(t testing.TB) (*repro.DB, *repro.Prepared) {
	t.Helper()
	gen := tpch.Generate(obsQ15Config)
	db := repro.NewDB(gen.Space, gen.Supplier, gen.Lineitem)
	db.Pool().Resize(1) // sequential: cache orders, hence traces, deterministic
	sess := db.Session(repro.WithEps(1e-3), repro.WithForceLineage())
	node := &plan.TopK{Input: gen.Query("Q15"), K: 3}
	pr, err := sess.Query(node).Build()
	if err != nil {
		t.Fatal(err)
	}
	return db, pr
}

// TestObsAnalyzeQ15 is the acceptance check: EXPLAIN ANALYZE on the
// ranked TPC-H Q15 reports the route, per-stage volumes, per-answer
// decision points, and cache hit rates — all in one deterministic text
// tree.
func TestObsAnalyzeQ15(t *testing.T) {
	_, pr := obsQ15(t)
	tr, err := pr.Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Route != "d-tree" {
		t.Fatalf("route %q, want d-tree (forced lineage)", tr.Route)
	}
	if tr.Lineage == nil || tr.Lineage.Answers == 0 || tr.Lineage.Tuples == 0 {
		t.Fatalf("lineage stats missing or empty: %+v", tr.Lineage)
	}
	if tr.Rank == nil || tr.Rank.Kind != "top-k" || tr.Rank.K != 3 {
		t.Fatalf("rank stats %+v, want top-k k=3", tr.Rank)
	}
	if tr.Rank.Steps == 0 || tr.Rank.DecidedIn == 0 {
		t.Fatalf("rank recorded no work: %+v", tr.Rank)
	}
	if tr.AnswersTotal == 0 || len(tr.Answers) == 0 {
		t.Fatalf("no answer traces (total %d)", tr.AnswersTotal)
	}
	decided := 0
	for _, a := range tr.Answers {
		if a.DecidedAtStep > 0 {
			decided++
		}
	}
	if decided == 0 {
		t.Fatal("no answer carries a DecidedAtStep")
	}
	if tr.Wall <= 0 {
		t.Fatalf("wall %v, want positive", tr.Wall)
	}
	text := tr.Text()
	for _, want := range []string{
		"EXPLAIN ANALYZE route=d-tree",
		"stage lineage:",
		"stage rank:",
		"top-k k=3",
		"decided@",
		"caches: frag ",
		"| intern ",
		"total: answers=",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("trace text missing %q:\n%s", want, text)
		}
	}
	// The timed render carries the same tree plus wall figures.
	if s := tr.String(); !strings.Contains(s, "wall=") {
		t.Fatalf("String() carries no timings:\n%s", s)
	}
}

// TestObsTraceDeterministic pins the determinism contract: the same
// query on identically seeded databases, run sequentially (pool
// parallelism 1), renders a byte-identical Text() tree — across
// reruns, and from 8 concurrent goroutines each driving its own DB
// (the -race half of the guarantee).
func TestObsTraceDeterministic(t *testing.T) {
	ref := func() string {
		_, pr := obsQ15(t)
		tr, err := pr.Analyze(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return tr.Text()
	}()

	for i := 0; i < 2; i++ {
		_, pr := obsQ15(t)
		tr, err := pr.Analyze(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := tr.Text(); got != ref {
			t.Fatalf("rerun %d trace diverges:\n--- ref\n%s\n--- got\n%s", i, ref, got)
		}
	}

	texts := make([]string, 8)
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gen := tpch.Generate(obsQ15Config)
			db := repro.NewDB(gen.Space, gen.Supplier, gen.Lineitem)
			db.Pool().Resize(1)
			sess := db.Session(repro.WithEps(1e-3), repro.WithForceLineage())
			node := &plan.TopK{Input: gen.Query("Q15"), K: 3}
			pr, err := sess.Query(node).Build()
			if err != nil {
				errs[g] = err
				return
			}
			tr, err := pr.Analyze(context.Background())
			if err != nil {
				errs[g] = err
				return
			}
			texts[g] = tr.Text()
		}(g)
	}
	wg.Wait()
	for g := 0; g < 8; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if texts[g] != ref {
			t.Fatalf("goroutine %d trace diverges:\n--- ref\n%s\n--- got\n%s", g, ref, texts[g])
		}
	}
}

// TestObsTraceOnOffIdentical pins the zero-interference and
// parallelism-invariance contracts together: neither a WithTrace sink
// nor the DB pool's size changes anything about the answers — values,
// probabilities, bounds, steps, decision points and arrival order are
// bitwise identical over trace {off, on} × pool {1, 2, 8}.
func TestObsTraceOnOffIdentical(t *testing.T) {
	type row struct {
		vals      []pdb.Value
		p, lo, hi float64
		nodes     int
		decidedAt int
	}
	gen := tpch.Generate(tpch.Config{SF: 0.002, ProbHigh: 1, Seed: 3})
	run := func(t *testing.T, node plan.Node, eps float64, traced bool, pool int) []row {
		db := repro.NewDB(gen.Space, gen.Supplier, gen.Lineitem)
		db.Pool().Resize(pool)
		traces := 0
		opts := []repro.SessionOption{repro.WithEps(eps), repro.WithForceLineage()}
		if traced {
			opts = append(opts, repro.WithTrace(func(tr *repro.QueryTrace) { traces++ }))
		}
		var rows []row
		for a, err := range db.Session(opts...).Query(node).Run(context.Background()) {
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, row{a.Vals, a.P, a.Res.Lo, a.Res.Hi, a.Res.Nodes, a.DecidedAtStep})
		}
		want := 0
		if traced {
			want = 1
		}
		if traces != want {
			t.Fatalf("traced=%v run delivered %d traces, want %d", traced, traces, want)
		}
		return rows
	}

	q15 := gen.Query("Q15")
	for _, q := range []struct {
		name string
		node plan.Node
	}{
		{"q15-top3", &plan.TopK{Input: q15, K: 3}},
		{"q15", q15},
		{"q1", gen.Query("Q1")},
	} {
		for _, eps := range []float64{1e-3, 0} { // 0 = exact
			t.Run(fmt.Sprintf("%s/eps=%g", q.name, eps), func(t *testing.T) {
				ref := run(t, q.node, eps, false, 1)
				if len(ref) == 0 {
					t.Fatal("no answers")
				}
				for _, traced := range []bool{false, true} {
					for _, pool := range []int{1, 2, 8} {
						got := run(t, q.node, eps, traced, pool)
						if len(got) != len(ref) {
							t.Fatalf("traced=%v pool=%d: %d answers, reference %d", traced, pool, len(got), len(ref))
						}
						for i := range got {
							a, b := got[i], ref[i]
							if !slices.Equal(a.vals, b.vals) || a.p != b.p || a.lo != b.lo || a.hi != b.hi ||
								a.nodes != b.nodes || a.decidedAt != b.decidedAt {
								t.Fatalf("traced=%v pool=%d: answer %d diverges: %+v vs %+v", traced, pool, i, a, b)
							}
						}
					}
				}
			})
		}
	}
}

// TestRankedRunNeverEntersPool pins where the worker pool is entered on
// the ε > 0 path: a ranked query refines on the calling goroutine and
// runs no pool task at all, and an unranked one runs exactly conf()'s
// one task per answer — leaf preparation inside an evaluation never
// fans out, however wide the lineage and the pool.
func TestRankedRunNeverEntersPool(t *testing.T) {
	gen := tpch.Generate(tpch.Config{SF: 0.002, ProbHigh: 1, Seed: 3})
	db := repro.NewDB(gen.Space, gen.Supplier, gen.Lineitem)
	db.Pool().Resize(8)
	poolTasks := func() int64 {
		snap := db.Snapshot()
		return snap.PoolSpawned + snap.PoolInline
	}
	q15 := gen.Query("Q15")
	ctx := context.Background()

	ranked, err := db.Session(repro.WithEps(1e-3), repro.WithForceLineage()).Query(plan.Node(&plan.TopK{Input: q15, K: 3})).All(ctx)
	if err != nil || len(ranked) != 3 {
		t.Fatalf("ranked top-3: %d answers, err %v", len(ranked), err)
	}
	if n := poolTasks(); n != 0 {
		t.Fatalf("ranked run entered the pool: %d tasks", n)
	}

	answers, err := db.Session(repro.WithEps(1e-2), repro.WithForceLineage()).Query(q15).All(ctx)
	if err != nil || len(answers) < 2 {
		t.Fatalf("unranked Q15: %d answers, err %v", len(answers), err)
	}
	if n := poolTasks(); n != int64(len(answers)) {
		t.Fatalf("unranked run ran %d pool tasks for %d answers, want one per answer", n, len(answers))
	}
}

// TestObsMetricsFacade drives the registry surface: DB.Snapshot
// accumulates across queries, Snapshot.Sub reads a delta window,
// and PublishExpvar exposes the snapshot on the expvar surface.
func TestObsMetricsFacade(t *testing.T) {
	db := smallDB(t)
	ctx := context.Background()

	if _, err := db.Session().Query("R").Join(db.Session().Query("S"), 1, 0).GroupLineage(3).All(ctx); err == nil {
		t.Fatal("cross-session join must fail") // sanity: sessions are distinct
	}

	sess := db.Session(repro.WithForceLineage())
	if _, err := sess.Query("R").Join(sess.Query("S"), 1, 0).GroupLineage(3).All(ctx); err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	if snap.Queries != 1 {
		t.Fatalf("Queries = %d after one query, want 1", snap.Queries)
	}
	if snap.RouteLineage != 1 {
		t.Fatalf("RouteLineage = %d on a forced-lineage query, want 1", snap.RouteLineage)
	}
	if snap.LineageAnswers == 0 || snap.LineageTuples == 0 {
		t.Fatalf("lineage volumes not recorded: %+v", snap)
	}
	if snap.QueryWallMicros.Count != 1 {
		t.Fatalf("QueryWallMicros.Count = %d, want 1", snap.QueryWallMicros.Count)
	}
	if snap.InternerStored == 0 {
		t.Fatalf("interner traffic not recorded: %+v", snap)
	}

	// A window opened now, Snapshot minus a baseline, sees only the
	// traffic that follows it.
	base := db.Snapshot()
	if d := db.Snapshot().Sub(base); d.Queries != 0 {
		t.Fatalf("fresh window reports %d queries", d.Queries)
	}
	sess2 := db.Session()
	if _, err := sess2.Query("R").GroupLineage(0).All(ctx); err != nil {
		t.Fatal(err)
	}
	d := db.Snapshot().Sub(base)
	if d.Queries != 1 {
		t.Fatalf("window Queries = %d, want 1", d.Queries)
	}
	if got := db.Snapshot().Queries; got != 2 {
		t.Fatalf("DB-wide Queries = %d, want 2", got)
	}

	// Safe-route traffic lands in the route counters too.
	before := db.Snapshot().RouteSafe
	safe := db.Session()
	if _, err := safe.Query("R").Join(safe.Query("S"), 1, 0).GroupLineage(3).All(ctx); err != nil {
		t.Fatal(err)
	}
	if got := db.Snapshot().RouteSafe; got != before+1 {
		t.Fatalf("RouteSafe = %d after a safe-routed query, want %d", got, before+1)
	}

	// Expvar export: published once under a unique name, the var
	// renders the live snapshot as JSON.
	db.PublishExpvar("repro-test-metrics")
	v := expvar.Get("repro-test-metrics")
	if v == nil {
		t.Fatal("PublishExpvar did not publish")
	}
	if s := v.String(); !strings.Contains(s, "\"queries\"") {
		t.Fatalf("expvar snapshot missing queries field: %s", s)
	}
}

// TestObsCacheStatsUnified pins the satellite: every cache of the
// façade reports the one CacheStats shape, and the hit-rate helpers
// behave. Exact and approximate sessions both memoize in their
// fragment cache.
func TestObsCacheStatsUnified(t *testing.T) {
	db := smallDB(t)
	var stats [2]repro.CacheStats
	for i, eps := range []float64{0, 1e-4} {
		sess := db.Session(repro.WithEps(eps), repro.WithForceLineage())
		if _, err := sess.Query("R").Join(sess.Query("S"), 1, 0).GroupLineage(3).All(context.Background()); err != nil {
			t.Fatal(err)
		}
		stats[i] = sess.FragCache().CacheStats()
		if stats[i].Lookups() == 0 {
			t.Fatalf("frag cache saw no lookups on a lineage query at eps %g", eps)
		}
	}
	for i, s := range stats {
		if s.Hits < 0 || s.Misses < 0 || s.Entries < 0 {
			t.Fatalf("cache %d negative stats: %+v", i, s)
		}
		if r := s.HitRate(); math.IsNaN(r) || r < 0 || r > 1 {
			t.Fatalf("cache %d hit rate %v out of range", i, r)
		}
	}
	if d := stats[1].Sub(repro.CacheStats{}); d != stats[1] {
		t.Fatalf("Sub(zero) changed the stats: %+v vs %+v", d, stats[1])
	}
}
