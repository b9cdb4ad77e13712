package repro_test

import (
	"context"
	"testing"

	"repro"
	"repro/internal/engine"
	"repro/internal/formula"
	"repro/internal/plan"
)

// BenchmarkFacadeOverhead measures what the DB/Session/Query façade
// costs over hand-assembling the internal surface (plan.CompileWith +
// Plan.Answers with an explicit evaluator) on the same ranked
// lineage-route workload. Both sides build and run the query from
// scratch per iteration with a fresh fragment cache, so the numbers
// differ only by the façade's builder, validation, and session
// plumbing — which must stay within noise (≤5%).
func BenchmarkFacadeOverhead(b *testing.B) {
	s, rel := facadeWorkload(80)
	db := repro.NewDB(s, rel)
	ctx := context.Background()
	const k = 8

	b.Run("facade", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sess := db.Session(repro.WithEps(1e-3), repro.WithForceLineage())
			got, err := sess.Query("answers").GroupLineage(0).TopK(k).All(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if len(got) != k {
				b.Fatalf("facade returned %d answers", len(got))
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := plan.CompileWith(
				&plan.TopK{Input: &plan.GroupLineage{Input: &plan.Scan{Rel: rel}, Cols: []int{0}}, K: k},
				plan.Options{DisableSafe: true, DisableIQ: true})
			ev := engine.Approx{Eps: 1e-3, Kind: engine.Absolute, Frags: formula.NewFragCache(0)}
			got, err := p.Answers(ctx, s, ev)
			if err != nil {
				b.Fatal(err)
			}
			if len(got) != k {
				b.Fatalf("direct path returned %d answers", len(got))
			}
		}
	})
}

// BenchmarkFacadeFirstAnswer measures the anytime payoff the stream
// surface exposes: time to the first proven answer of a ranked query
// versus draining the whole stream.
func BenchmarkFacadeFirstAnswer(b *testing.B) {
	s, rel := facadeWorkload(160)
	db := repro.NewDB(s, rel)
	ctx := context.Background()

	b.Run("first", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sess := db.Session(repro.WithEps(1e-4), repro.WithForceLineage())
			_, ok, err := repro.First(sess.Query("answers").GroupLineage(0).TopK(10).Run(ctx))
			if err != nil || !ok {
				b.Fatalf("first answer: ok=%v err=%v", ok, err)
			}
		}
	})
	b.Run("drain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sess := db.Session(repro.WithEps(1e-4), repro.WithForceLineage())
			got, err := repro.Collect(sess.Query("answers").GroupLineage(0).TopK(10).Run(ctx))
			if err != nil {
				b.Fatal(err)
			}
			if len(got) != 10 {
				b.Fatalf("drained %d answers", len(got))
			}
		}
	})
}
