// The repository's one Go benchmark, the timing harness of the paper's
// evaluation. The counts behind its cells are rows of internal/exp's
// step ledger; the wall times of the production paths are bench/'s.
package repro_test

import (
	"strings"
	"testing"

	"repro/internal/exp"
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
