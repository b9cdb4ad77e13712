package rank

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/formula"
)

// benchAnswers builds Q1/B6-style lineage at scale: nAnswers answers
// over one shared pool of base-tuple variables, each answer the union
// of a handful of width-3 joins, with skewed per-answer sizes so the
// confidence distribution has a clear head and a long tail — the
// regime where top-k pruning pays.
func benchAnswers(nAnswers int) (*formula.Space, []formula.DNF) {
	s := formula.NewSpace()
	vars := make([]formula.Var, 4*nAnswers)
	for i := range vars {
		vars[i] = s.AddBool(0.02 + 0.25*float64(i%11)/11)
	}
	dnfs := make([]formula.DNF, nAnswers)
	for i := 0; i < nAnswers; i++ {
		clauses := 12 + i%16 // 12..27 clauses, all past the exact shortcut
		var d formula.DNF
		for j := 0; j < clauses; j++ {
			a := vars[(4*i+j)%len(vars)]
			b := vars[(4*i+3*j+1)%len(vars)]
			c := vars[(7*i+j+2)%len(vars)]
			if cl, ok := formula.NewClause(formula.Pos(a), formula.Pos(b), formula.Pos(c)); ok {
				d = append(d, cl)
			}
		}
		dnfs[i] = d.Normalize()
	}
	return s, dnfs
}

const (
	benchN   = 240
	benchK   = 10
	benchEps = 1e-6
)

// benchAnswersDeep is the deep-lineage variant: fewer answers, each
// with enough clauses that refinement builds trees of hundreds of
// nodes. Here the per-step d-tree cost dominates the run (on the
// benchAnswers workload per-answer preparation does), so this is the
// regime where the incremental dirty-path/heap bookkeeping shows up
// in wall-clock, not just step counts.
func benchAnswersDeep(nAnswers int) (*formula.Space, []formula.DNF) {
	s := formula.NewSpace()
	vars := make([]formula.Var, 6*nAnswers)
	for i := range vars {
		vars[i] = s.AddBool(0.01 + 0.12*float64(i%13)/13)
	}
	dnfs := make([]formula.DNF, nAnswers)
	for i := 0; i < nAnswers; i++ {
		clauses := 40 + i%25
		var d formula.DNF
		for j := 0; j < clauses; j++ {
			a := vars[(6*i+j)%len(vars)]
			b := vars[(6*i+3*j+1)%len(vars)]
			c := vars[(11*i+j+2)%len(vars)]
			if cl, ok := formula.NewClause(formula.Pos(a), formula.Pos(b), formula.Pos(c)); ok {
				d = append(d, cl)
			}
		}
		dnfs[i] = d.Normalize()
	}
	return s, dnfs
}

// TestTopKPrunesVsFull is the acceptance property behind
// BenchmarkTopKVsFull: ranking the top 10 of 240 answers must cost
// measurably fewer refinement steps than evaluating every answer to ε.
func TestTopKPrunesVsFull(t *testing.T) {
	s, dnfs := benchAnswers(benchN)
	opt := Options{Eps: benchEps}
	full, err := RefineAll(context.Background(), s, dnfs, opt)
	if err != nil {
		t.Fatal(err)
	}
	topk, err := TopK(context.Background(), s, dnfs, benchK, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("top-%d steps=%d, full-evaluation steps=%d (%.1fx)",
		benchK, topk.Steps, full.Steps, float64(full.Steps)/float64(topk.Steps+1))
	if full.Steps == 0 {
		t.Fatal("bench workload needs no refinement at all; grow it")
	}
	if topk.Steps*2 > full.Steps {
		t.Fatalf("top-k spent %d steps, want < half of full evaluation's %d", topk.Steps, full.Steps)
	}
	// And the selected set agrees with the fully-evaluated ranking (the
	// order within the set may differ between bound midpoints and
	// ε-refined estimates; the property tests pin order separately).
	want := make(map[int]bool, benchK)
	for _, i := range full.Ranking[:benchK] {
		want[i] = true
	}
	for _, i := range topk.Ranking {
		if !want[i] {
			t.Fatalf("top-k set %v disagrees with full evaluation's %v", topk.Ranking, full.Ranking[:benchK])
		}
	}
}

// TestPinnedStepCounts pins the refinement-step counts of the benchmark
// fixtures below. Steps are machine-independent, so any drift is a
// behaviour change in the scheduler or the refiner, never noise; the
// event-driven decide index and the full-rescan oracle scheduler must
// both land on the same count, and every top-k selection must agree
// with exact evaluation — the arbiter when a pin is re-taken.
func TestPinnedStepCounts(t *testing.T) {
	topK := func(ctx context.Context, s *formula.Space, dnfs []formula.DNF, o Options) (Result, error) {
		return TopK(ctx, s, dnfs, benchK, o, nil)
	}
	oracleTopK := func(ctx context.Context, s *formula.Space, dnfs []formula.DNF, o Options) (Result, error) {
		return refTopK(ctx, s, dnfs, benchK, o, nil)
	}
	type run func(context.Context, *formula.Space, []formula.DNF, Options) (Result, error)
	s, dnfs := benchAnswers(benchN)
	sd, deep := benchAnswersDeep(48)
	s60, dnfs60 := benchAnswers(60)
	s960, dnfs960 := benchAnswers(960)
	for _, tc := range []struct {
		name string
		s    *formula.Space
		dnfs []formula.DNF
		runs []run // RefineAll neither decides nor picks: it has no oracle side
		want int
	}{
		{"topk", s, dnfs, []run{topK, oracleTopK}, 7},
		{"full", s, dnfs, []run{RefineAll}, 282},
		// 140 and 3426 while the Refiner refined the widest leaf, not
		// the one with the largest width × root sensitivity.
		{"topk-deep", sd, deep, []run{topK, oracleTopK}, 66},
		{"full-deep", sd, deep, []run{RefineAll}, 1141},
		{"decide/n=60", s60, dnfs60, []run{topK, oracleTopK}, 14},
		{"decide/n=960", s960, dnfs960, []run{topK, oracleTopK}, 15},
	} {
		for i, run := range tc.runs {
			res, err := run(context.Background(), tc.s, tc.dnfs, Options{Eps: benchEps})
			if err != nil {
				t.Fatalf("%s run %d: %v", tc.name, i, err)
			}
			if res.Steps != tc.want {
				t.Errorf("%s run %d: %d steps, want %d", tc.name, i, res.Steps, tc.want)
			}
			if i == 0 && len(tc.runs) == 2 {
				checkTopKSelection(t, tc.name, exactProbs(t, tc.s, tc.dnfs), res, benchK)
			}
		}
	}
}

// BenchmarkTopKVsFull/topk vs /full: anytime top-k against the
// evaluate-everything baseline on the same 240-answer workload.
// steps/op is the refinement-step count — the machine-independent
// measure the pruning claim is about. Each sub-benchmark holds one
// prepared-fragment cache across its iterations, the way a façade
// Session holds one across queries, so time/op measures steady-state
// query serving (the first, cold iteration amortizes to nothing);
// step counts and bounds are identical either way — the cache only
// removes re-preparation work.
func BenchmarkTopKVsFull(b *testing.B) {
	s, dnfs := benchAnswers(benchN)
	b.Run("topk", func(b *testing.B) {
		opt := Options{Eps: benchEps, Frags: formula.NewFragCache(0)}
		steps := 0
		for i := 0; i < b.N; i++ {
			res, err := TopK(context.Background(), s, dnfs, benchK, opt, nil)
			if err != nil {
				b.Fatal(err)
			}
			steps += res.Steps
		}
		b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
	})
	b.Run("full", func(b *testing.B) {
		opt := Options{Eps: benchEps, Frags: formula.NewFragCache(0)}
		steps := 0
		for i := 0; i < b.N; i++ {
			res, err := RefineAll(context.Background(), s, dnfs, opt)
			if err != nil {
				b.Fatal(err)
			}
			steps += res.Steps
		}
		b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
	})
	sd, deep := benchAnswersDeep(48)
	b.Run("topk-deep", func(b *testing.B) {
		opt := Options{Eps: benchEps, Frags: formula.NewFragCache(0)}
		steps := 0
		for i := 0; i < b.N; i++ {
			res, err := TopK(context.Background(), sd, deep, benchK, opt, nil)
			if err != nil {
				b.Fatal(err)
			}
			steps += res.Steps
		}
		b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
	})
	b.Run("full-deep", func(b *testing.B) {
		opt := Options{Eps: benchEps, Frags: formula.NewFragCache(0)}
		steps := 0
		for i := 0; i < b.N; i++ {
			res, err := RefineAll(context.Background(), sd, deep, opt)
			if err != nil {
				b.Fatal(err)
			}
			steps += res.Steps
		}
		b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
	})
}

// BenchmarkDecide measures the per-grant scheduling cost (decide pass
// + pick) as the answer count grows: the refinement steps stay within
// a few of each other from n = 60 to n = 960, so growth in time/op is
// the scheduling layer's.
func BenchmarkDecide(b *testing.B) {
	for _, n := range []int{60, 240, 960} {
		s, dnfs := benchAnswers(n)
		opt := Options{Eps: benchEps}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			steps := 0
			for i := 0; i < b.N; i++ {
				res, err := TopK(context.Background(), s, dnfs, benchK, opt, nil)
				if err != nil {
					b.Fatal(err)
				}
				steps += res.Steps
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
}

// BenchmarkThresholdVsFull measures the τ-cut scheduler the same way.
func BenchmarkThresholdVsFull(b *testing.B) {
	s, dnfs := benchAnswers(benchN)
	opt := Options{Eps: benchEps}
	b.Run("threshold", func(b *testing.B) {
		steps := 0
		for i := 0; i < b.N; i++ {
			res, err := Threshold(context.Background(), s, dnfs, 0.5, opt, nil)
			if err != nil {
				b.Fatal(err)
			}
			steps += res.Steps
		}
		b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
	})
}
