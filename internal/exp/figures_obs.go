package exp

import (
	"context"
	"fmt"
	"strings"

	"repro"
	"repro/internal/plan"
	"repro/internal/tpch"
)

// obsTable is the observability layer's demonstration figure (not in
// the paper): it runs the ranked TPC-H Q15 through the façade with
// EXPLAIN ANALYZE tracing on the lineage route and prints the
// execution's anatomy — route, per-stage volumes, scheduler outcome,
// cache hit rates, pool saturation — from the per-query trace and the
// DB-wide metrics registry the same run populated.
func obsTable(p Params) *Table {
	gen := tpch.Generate(tpch.Config{SF: p.SF, ProbHigh: 1, Seed: p.Seed})
	db := repro.NewDB(gen.Space, gen.Supplier, gen.Lineitem)
	sess := db.Session(repro.WithEps(topkEps), repro.WithForceLineage())

	t := &Table{
		ID:     "obs",
		Title:  fmt.Sprintf("EXPLAIN ANALYZE + metrics registry, ranked TPC-H Q15, SF %g", p.SF),
		Header: []string{"metric", "value"},
	}
	node := &plan.TopK{Input: gen.Query("Q15"), K: 10}
	pr, err := sess.Query(node).Build()
	if err != nil {
		t.Rows = append(t.Rows, []string{"build", "ERR " + err.Error()})
		return t
	}
	tr, err := pr.Analyze(context.Background())
	if err != nil {
		t.Rows = append(t.Rows, []string{"analyze", "ERR " + err.Error()})
		return t
	}

	add := func(k, v string) { t.Rows = append(t.Rows, []string{k, v}) }
	add("route", tr.Route)
	if l := tr.Lineage; l != nil {
		add("lineage", fmt.Sprintf("answers=%d clauses=%d tuples=%d", l.Answers, l.Clauses, l.Tuples))
	}
	if r := tr.Rank; r != nil {
		add("rank", fmt.Sprintf("%s k=%d steps=%d decided in=%d out=%d", r.Kind, r.K, r.Steps, r.DecidedIn, r.DecidedOut))
	}
	for _, st := range tr.Stages {
		add("stage "+st.Name, fmt.Sprintf("items=%d wall=%v", st.Items, st.Wall))
	}
	add("frag cache", fmt.Sprintf("%d/%d hits (%.1f%%)", tr.FragCache.Hits, tr.FragCache.Lookups(), 100*tr.FragCache.HitRate()))
	add("interner", fmt.Sprintf("%d/%d hits, %d stored", tr.Interner.Hits, tr.Interner.Lookups(), tr.Interner.Entries))
	add("wall", fmt.Sprint(tr.Wall))

	snap := db.Snapshot()
	add("registry refine steps", fmt.Sprint(snap.RefineSteps))
	add("registry dirty-path mean", fmt.Sprintf("%.1f", snap.DirtyPathLen.Mean()))
	add("registry rank grants", fmt.Sprint(snap.RankGrants))
	add("registry pool", fmt.Sprintf("spawned=%d inline=%d", snap.PoolSpawned, snap.PoolInline))
	add("registry budget exhausted", fmt.Sprint(snap.BudgetExhausted))
	add("registry query wall mean", fmt.Sprintf("%.0fµs", snap.QueryWallMicros.Mean()))
	t.Notes = append(t.Notes,
		"Prepared.Analyze trace (deterministic Text() rendering omits the wall figures):",
	)
	for _, line := range strings.Split(strings.TrimRight(tr.Text(), "\n"), "\n") {
		t.Notes = append(t.Notes, "  "+line)
	}
	return t
}
