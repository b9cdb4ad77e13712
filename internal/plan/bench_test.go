package plan_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/tpch"
	"repro/internal/workpool"
)

// BenchmarkPlannerTPCH measures the routed end-to-end cost of the whole
// catalog: compile (analysis + routing) plus execution along the chosen
// route, with the hard queries bounded by a node budget (exhausting it
// is a valid outcome — the answer then carries partial bounds, and the
// bench measures that bounded work deterministically).
func BenchmarkPlannerTPCH(b *testing.B) {
	db := tpch.Generate(tpch.Config{SF: 0.001, ProbHigh: 1, Seed: 42})
	catalog := db.Catalog()
	ev := engine.Approx{Eps: 0.01, Kind: engine.Relative,
		Budget: engine.Budget{MaxNodes: 200_000, MaxWork: 1_600_000}}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, entry := range catalog {
			p := plan.Compile(entry.Node)
			if _, err := p.Answers(ctx, db.Space, ev); err != nil && !errors.Is(err, engine.ErrBudget) {
				b.Fatalf("%s: %v", entry.Name, err)
			}
		}
	}
}

// BenchmarkSafeVsDtree is the head-to-head the planner's safe route
// buys on TPC-H Q1/B6-style queries: the same query answered by the
// planner-chosen extensional plan versus forced lineage + exact d-tree
// evaluation.
func BenchmarkSafeVsDtree(b *testing.B) {
	db := tpch.Generate(tpch.Config{SF: 0.002, ProbHigh: 1, Seed: 42})
	ctx := context.Background()
	queries := []struct {
		name string
		node plan.Node
	}{
		{"Q1", db.Q1IR(tpch.MaxDate * 3 / 4)},
		{"B6", db.B6IR(300, 1200, 2, 6, 30)},
	}
	for _, q := range queries {
		b.Run(q.name+"/planner-safe", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := plan.Compile(q.node)
				if p.Route != plan.RouteSafe {
					b.Fatalf("routed %v: %s", p.Route, p.Why)
				}
				if _, err := p.Answers(ctx, db.Space, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(q.name+"/forced-dtree", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := plan.CompileWith(q.node, plan.Options{DisableSafe: true, DisableIQ: true})
				if _, err := p.Answers(ctx, db.Space, engine.Exact{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipelinedLineage isolates the streaming runtime: lineage
// materialization for a grouped join query through the pipelined
// cursors (build-side buffering only, interned clause merges).
func BenchmarkPipelinedLineage(b *testing.B) {
	db := tpch.Generate(tpch.Config{SF: 0.002, ProbHigh: 1, Seed: 42})
	node := db.Q15IR(0, tpch.MaxDate/3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if answers := plan.Lineage(node); len(answers) == 0 {
			b.Fatal("no answers")
		}
	}
}

// BenchmarkShardedLineage measures the partition-parallel lineage
// pipeline against the single-chain reference on a 4-way pool: the
// TPC-H Q15 grouped join at growing scale factors (planner-chosen shard
// count on the largest row) and the genworkload skew scenario with
// uniform vs Zipf keys (shard imbalance). shards=1 rows measure the
// sharding machinery's overhead when it is off — the ≤5% small-query
// regression budget. Speedups only materialize with ≥4 cores; on
// single-CPU runners (like CI's, see the shard job note) the sub-
// benchmarks still pin correctness and the shards=1 overhead.
func BenchmarkShardedLineage(b *testing.B) {
	pool := workpool.New(4)
	type row struct {
		name  string
		node  plan.Node
		small bool // stays under the planner's shard floor
	}
	var rows []row
	for _, sf := range []float64{0.001, 0.004} {
		db := tpch.Generate(tpch.Config{SF: sf, ProbHigh: 1, Seed: 42})
		// Q15's driver is the tiny supplier table — the planner must
		// keep it unsharded at every scale (the small-query row).
		rows = append(rows, row{name: fmt.Sprintf("q15/sf=%g", sf), node: db.Q15IR(0, tpch.MaxDate/3), small: true})
		// The flipped join drives on lineitem, the largest table: the
		// planner-sharded large row.
		lisupp := &plan.GroupLineage{
			Input: &plan.EquiJoin{
				Left:    &plan.Scan{Rel: db.Lineitem},
				Right:   &plan.Scan{Rel: db.Supplier},
				LeftCol: 2, RightCol: 0, // l_suppkey = s_suppkey
			},
			Cols: []int{11}, // s_nationkey
		}
		rows = append(rows, row{name: fmt.Sprintf("lisupp/sf=%g", sf), node: lisupp})
	}
	for _, skew := range []float64{0, 1.2} {
		db := tpch.GenerateSkewed(24_000, 480, skew, 42)
		rows = append(rows, row{name: fmt.Sprintf("skew=%g", skew), node: db.JoinIR()})
	}
	for _, r := range rows {
		for _, shards := range []int{1, 0} {
			mode := "sharded-auto"
			if shards == 1 {
				mode = "unsharded"
			}
			b.Run(fmt.Sprintf("%s/%s", r.name, mode), func(b *testing.B) {
				p := plan.CompileWith(r.node, plan.Options{
					DisableSafe: true, DisableIQ: true, Shards: shards, Pool: pool,
				})
				if shards == 0 && !r.small && p.Shards < 2 {
					b.Fatalf("planner chose shards=%d (%s), want >1", p.Shards, p.Why)
				}
				b.ReportMetric(float64(p.Shards), "shards/op")
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if answers := p.Lineage(); len(answers) == 0 {
						b.Fatal("no answers")
					}
				}
			})
		}
	}
}
