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
	s, d := randdnf.Width3(clauses)
	return s, d, Options{Eps: 1e-12, Kind: Absolute, MaxNodes: 40 * clauses}
}

// TestRefinerStepsMatchOracle runs the BenchmarkRefinerStep fixtures
// through the Refiner and the O(tree) oracle: both must spend the same
// number of steps. The step counts themselves are rows of
// internal/exp's step ledger (TestStepLedger).
func TestRefinerStepsMatchOracle(t *testing.T) {
	for _, clauses := range []int{40, 80, 160, 320} {
		s, d, opt := refinerStepWorkload(clauses)
		r := NewRefiner(context.Background(), s, d, opt)
		for !r.Done() {
			r.Step(64)
		}
		ref := newRefRefiner(context.Background(), s, d, opt)
		for !ref.Done() {
			ref.Step(64)
		}
		if r.Steps() != ref.Steps() {
			t.Errorf("clauses=%d: %d steps, the oracle %d", clauses, r.Steps(), ref.Steps())
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
