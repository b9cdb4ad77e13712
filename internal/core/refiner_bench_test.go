package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/formula"
	"repro/internal/randdnf"
)

// refinerStepWorkload is the BenchmarkRefinerStep fixture: a random
// width-3 DNF refined at a tight Eps under a node budget, so every run
// refines maxNodes worth of tree.
func refinerStepWorkload(clauses int) (*formula.Space, formula.DNF, Options) {
	cfg := randdnf.Config{
		Vars: 6 * clauses / 5, Clauses: clauses, MaxWidth: 3, ForceWidth: true,
		MaxDomain: 2, MinProb: 0.01, MaxProb: 0.15,
	}
	s, d := randdnf.Generate(cfg, int64(clauses))
	return s, d, Options{Eps: 1e-12, Kind: Absolute, MaxNodes: 40 * clauses}
}

// TestRefinerPinnedStepCounts pins the step counts of the
// BenchmarkRefinerStep fixtures: steps are machine-independent, so
// drift is a behaviour change, and the Refiner must spend exactly what
// the O(tree) oracle does. They read 484, 951, 1972 and 3702 while the
// Refiner refined the widest leaf rather than the one with the largest
// width × root sensitivity.
func TestRefinerPinnedStepCounts(t *testing.T) {
	for _, tc := range []struct{ clauses, want int }{{40, 487}, {80, 915}, {160, 1719}, {320, 3399}} {
		s, d, opt := refinerStepWorkload(tc.clauses)
		r := NewRefiner(context.Background(), s, d, opt)
		for !r.Done() {
			r.Step(64)
		}
		if r.Steps() != tc.want {
			t.Errorf("clauses=%d: %d steps, want %d", tc.clauses, r.Steps(), tc.want)
		}
		ref := newRefRefiner(context.Background(), s, d, opt)
		for !ref.Done() {
			ref.Step(64)
		}
		if ref.Steps() != tc.want {
			t.Errorf("clauses=%d oracle: %d steps, want %d", tc.clauses, ref.Steps(), tc.want)
		}
	}
}

// BenchmarkRefinerStep measures the per-refinement cost of Refiner.Step
// as the materialized tree grows: each sub-benchmark runs a refiner to
// its node budget and reports ns/step, which must scale sublinearly in
// tree size (dirty-path propagation + open-leaf heap).
func BenchmarkRefinerStep(b *testing.B) {
	for _, clauses := range []int{40, 80, 160, 320} {
		s, d, opt := refinerStepWorkload(clauses)
		b.Run(fmt.Sprintf("clauses=%d", clauses), func(b *testing.B) {
			totalSteps := 0
			for i := 0; i < b.N; i++ {
				r := NewRefiner(context.Background(), s, d, opt)
				for !r.Done() {
					r.Step(64)
				}
				if r.Steps() == 0 {
					b.Fatal("workload refines in zero steps; grow it")
				}
				totalSteps += r.Steps()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(totalSteps), "ns/step")
			b.ReportMetric(float64(totalSteps)/float64(b.N), "steps/op")
		})
	}
}
