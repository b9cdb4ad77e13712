package plan_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/tpch"
)

// BenchmarkPlannerTPCH measures the routed end-to-end cost of the whole
// catalog: compile (analysis + routing) plus execution along the chosen
// route, with the hard queries bounded by a node budget (exhausting it
// is a valid outcome — the answer then carries partial bounds, and the
// bench measures that bounded work deterministically).
func BenchmarkPlannerTPCH(b *testing.B) {
	db := tpch.Generate(tpch.Config{SF: 0.001, ProbHigh: 1, Seed: 42})
	catalog := db.Catalog()
	ev := engine.Approx{Eps: 0.01, Kind: engine.Relative, MaxNodes: 200_000, MaxWork: 1_600_000}
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
	for _, name := range []string{"Q1", "B6"} {
		node := db.Query(name)
		b.Run(name+"/planner-safe", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := plan.Compile(node)
				if p.Route != plan.RouteSafe {
					b.Fatalf("routed %v: %s", p.Route, p.Why)
				}
				if _, err := p.Answers(ctx, db.Space, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/forced-dtree", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := plan.CompileWith(node, plan.Options{DisableSafe: true, DisableIQ: true})
				if _, err := p.Answers(ctx, db.Space, engine.Approx{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipelinedLineage isolates the streaming runtime: lineage
// materialization through the pipelined cursors (build-side buffering
// only, interned clause merges) for a grouped join (Q15) and a chain of
// joins with a filtered lineitem build side (B21). Allocations are
// reported: they follow the groups and the build sides, so a
// per-output-tuple allocation shows as a jump in allocs/op.
func BenchmarkPipelinedLineage(b *testing.B) {
	db := tpch.Generate(tpch.Config{SF: 0.002, ProbHigh: 1, Seed: 42})
	for _, name := range []string{"Q15", "B21"} {
		node := db.Query(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if answers := plan.Lineage(node); len(answers) == 0 {
					b.Fatal("no answers")
				}
			}
		})
	}
}
