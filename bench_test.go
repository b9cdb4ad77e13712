// Benchmarks of the paper's evaluation (BenchmarkFigures, every cell of
// Figs. 6–9 and the stats table from internal/exp's scenario list),
// of batch conf() and the fragment cache, and micro-benchmarks of the
// hot primitives. The d-tree has one configuration, the paper's, so no
// bench switches part of it off.
//
// The figures run at exp.Smoke() scale, so `go test -bench=. -benchmem`
// finishes in minutes; cmd/experiments runs the full measured tables.
package repro_test

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/formula"
	"repro/internal/mc"
	"repro/internal/pdb"
	"repro/internal/randdnf"
	"repro/internal/sprout"
	"repro/internal/workpool"
)

// BenchmarkFigures times every cell of the paper's Section VII
// figures, internal/exp's scenario list, at smoke scale: one
// sub-benchmark per row × column, named <fig>/<row labels>/<column>.
// Each iteration is the cell cmd/experiments prints: the column's
// evaluator on every answer of the row, summed.
func BenchmarkFigures(b *testing.B) {
	for _, r := range exp.Scenarios(exp.Smoke()) {
		for j, c := range r.Cols {
			b.Run(r.Fig+"/"+strings.Join(r.Labels, "/")+"/"+c.Name, func(b *testing.B) {
				if r.Clauses() == 0 {
					b.Skip("no lineage at smoke scale")
				}
				var cell exp.Cell
				for i := 0; i < b.N; i++ {
					cell = r.Run(j)
				}
				b.ReportMetric(float64(r.Clauses()), "clauses")
				b.ReportMetric(float64(cell.Work), "work/op")
			})
		}
	}
}

// figureAnswers returns the answers of a Fig. 6(a) query at the
// default scale, the lineage the batch and cache benchmarks reuse.
func figureAnswers(b *testing.B, query string) (*formula.Space, []pdb.Answer) {
	for _, r := range exp.Scenarios(exp.Small(), "fig6a") {
		if r.Labels[0] == query {
			answers := make([]pdb.Answer, len(r.DNFs))
			for i, d := range r.DNFs {
				answers[i] = pdb.Answer{Vals: []pdb.Value{pdb.Value(i)}, Lin: d}
			}
			return r.Space, answers
		}
	}
	b.Fatalf("Fig. 6(a) has no query %s", query)
	return nil, nil
}

// ---------------------------------------------------------------------
// Unified engine: parallel batch conf() and subformula memoization.
// ---------------------------------------------------------------------

// confBatchAnswers builds a batch of answers with hierarchical
// (tractable) lineage where consecutive answers share blocks of base
// tuples — the cross-answer repeated-subformula pattern of multi-answer
// queries. Each answer's lineage spans `window` of the `blocks` shared
// blocks.
func confBatchAnswers(nAnswers, blocks, window, perBlock int) (*formula.Space, []pdb.Answer) {
	s := formula.NewSpace()
	blockDNF := make([]formula.DNF, blocks)
	for g := range blockDNF {
		r := s.AddBoolTagged(0.3, 0)
		var d formula.DNF
		for j := 0; j < perBlock; j++ {
			sv := s.AddBoolTagged(0.5, 1)
			d = append(d, formula.MustClause(formula.Pos(r), formula.Pos(sv)))
		}
		blockDNF[g] = d
	}
	answers := make([]pdb.Answer, nAnswers)
	for i := range answers {
		var lin formula.DNF
		for w := 0; w < window; w++ {
			lin = append(lin, blockDNF[(i+w)%blocks]...)
		}
		answers[i] = pdb.Answer{Vals: []pdb.Value{pdb.Value(i)}, Lin: lin}
	}
	return s, answers
}

func benchConfBatch(b *testing.B, s *formula.Space, answers []pdb.Answer, size int, cache bool) {
	b.Helper()
	pool := workpool.New(size)
	var ev engine.Approx
	if cache {
		// One cache shared across iterations: the steady state of a
		// server answering repeated/overlapping queries.
		ev.Frags = formula.NewFragCache(0)
	}
	b.ResetTimer()
	// After ResetTimer: it deletes user-reported metrics.
	b.ReportMetric(float64(len(answers)), "answers")
	for i := 0; i < b.N; i++ {
		confs, err := pdb.ConfWith(context.Background(), s, answers, ev, pool, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(confs) != len(answers) {
			b.Fatalf("got %d confs", len(confs))
		}
	}
}

// BenchmarkBatchConf measures the conf() operator over a 12-answer
// batch: parallel fan-out vs sequential, with and without the shared
// subformula cache. The parallel gain needs real cores (GOMAXPROCS>1);
// the cache gain shows even single-core.
func BenchmarkBatchConf(b *testing.B) {
	s, answers := confBatchAnswers(12, 15, 4, 40)
	b.Run("sequential", func(b *testing.B) { benchConfBatch(b, s, answers, 1, false) })
	b.Run("parallel", func(b *testing.B) { benchConfBatch(b, s, answers, 8, false) })
	b.Run("sequential-cache", func(b *testing.B) { benchConfBatch(b, s, answers, 1, true) })
	b.Run("parallel-cache", func(b *testing.B) { benchConfBatch(b, s, answers, 8, true) })
}

// BenchmarkBatchConfTPCH is the same comparison on real TPC-H lineage:
// the per-supplier answers of Q15.
func BenchmarkBatchConfTPCH(b *testing.B) {
	s, answers := figureAnswers(b, "15")
	b.Run("sequential", func(b *testing.B) { benchConfBatch(b, s, answers, 1, false) })
	b.Run("parallel", func(b *testing.B) { benchConfBatch(b, s, answers, 8, false) })
	b.Run("sequential-cache", func(b *testing.B) { benchConfBatch(b, s, answers, 1, true) })
	b.Run("parallel-cache", func(b *testing.B) { benchConfBatch(b, s, answers, 8, true) })
}

// BenchmarkCacheTPCH measures the memo cache on repeated evaluation of
// TPC-H lineage (B17, hierarchical) — cache-off vs a cache shared
// across evaluations.
func BenchmarkCacheTPCH(b *testing.B) {
	s, answers := figureAnswers(b, "B17")
	d := answers[0].Lin
	b.Run("cache-off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.ExactCtx(context.Background(), s, d, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cache-on", func(b *testing.B) {
		cache := formula.NewFragCache(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.ExactCtx(context.Background(), s, d, core.Options{Frags: cache}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------
// Micro-benchmarks of the primitives.
// ---------------------------------------------------------------------

func BenchmarkKarpLubySample(b *testing.B) {
	s, d := randdnf.Generate(randdnf.Config{
		Vars: 300, Clauses: 1000, MaxWidth: 3, MaxDomain: 2, MinProb: 0.05, MaxProb: 0.9,
	}, 3)
	kl := mc.NewKarpLuby(s, d, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = kl.Sample()
	}
}

func BenchmarkCompileHierarchical(b *testing.B) {
	s := formula.NewSpace()
	var d formula.DNF
	for a := 0; a < 100; a++ {
		r := s.AddBoolTagged(0.3, 0)
		for j := 0; j < 5; j++ {
			sv := s.AddBoolTagged(0.5, 1)
			d = append(d, formula.MustClause(formula.Pos(r), formula.Pos(sv)))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ExactCtx(context.Background(), s, d, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIQScanChain(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	level := func(n int) []sprout.WeightedValue {
		out := make([]sprout.WeightedValue, n)
		for i := range out {
			out[i] = sprout.WeightedValue{Val: int64(rng.Intn(100000)), Prob: rng.Float64()}
		}
		return out
	}
	a, c, e := level(5000), level(5000), level(5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sprout.ChainConfidence(a, c, e)
	}
}

func BenchmarkSubsumptionRemoval(b *testing.B) {
	_, d := randdnf.Generate(randdnf.Config{
		Vars: 100, Clauses: 2000, MaxWidth: 4, MaxDomain: 2, MinProb: 0.05, MaxProb: 0.9,
	}, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.RemoveSubsumed()
	}
}
