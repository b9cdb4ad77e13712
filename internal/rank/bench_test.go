package rank

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/formula"
	"repro/internal/randdnf"
)

const (
	benchN   = 240
	benchK   = 10
	benchEps = 1e-6
)

// TestTopKPrunesVsFull is the acceptance property behind
// BenchmarkTopKVsFull: ranking the top 10 of 240 answers must cost
// measurably fewer refinement steps than evaluating every answer to ε.
func TestTopKPrunesVsFull(t *testing.T) {
	s, dnfs := randdnf.Answers(benchN)
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

// TestTopKStepsMatchOracle runs the top-k benchmark fixtures through
// the event-driven decide index and the full-rescan oracle scheduler:
// both must spend the same number of steps, and the selection must
// agree with exact evaluation. The step counts themselves are rows of
// internal/exp's step ledger (TestStepLedger).
func TestTopKStepsMatchOracle(t *testing.T) {
	s, dnfs := randdnf.Answers(benchN)
	sd, deep := randdnf.AnswersDeep(48)
	s60, dnfs60 := randdnf.Answers(60)
	s960, dnfs960 := randdnf.Answers(960)
	for _, tc := range []struct {
		name string
		s    *formula.Space
		dnfs []formula.DNF
	}{
		{"topk", s, dnfs},
		{"topk-deep", sd, deep},
		{"decide/n=60", s60, dnfs60},
		{"decide/n=960", s960, dnfs960},
	} {
		opt := Options{Eps: benchEps}
		res, err := TopK(context.Background(), tc.s, tc.dnfs, benchK, opt, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ref, err := refTopK(context.Background(), tc.s, tc.dnfs, benchK, opt, nil)
		if err != nil {
			t.Fatalf("%s oracle: %v", tc.name, err)
		}
		if res.Steps != ref.Steps {
			t.Errorf("%s: %d steps, the oracle scheduler %d", tc.name, res.Steps, ref.Steps)
		}
		checkTopKSelection(t, tc.name, exactProbs(t, tc.s, tc.dnfs), res, benchK)
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
	s, dnfs := randdnf.Answers(benchN)
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
	sd, deep := randdnf.AnswersDeep(48)
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
		s, dnfs := randdnf.Answers(n)
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
	s, dnfs := randdnf.Answers(benchN)
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
