package sprout

import "repro/internal/pdb"

// Select keeps the rows satisfying pred. It has no caller left outside
// tests — the safe-plan route applies its selections inside the fused
// leaf scan and inside IndepJoinOn — and stays here, verbatim, for
// TestSelectAndBooleanProject. The rest of the string-keyed pipeline
// the safe route replaced is the oracle in internal/plan/oracle_test.go.
func (t *ProbTable) Select(pred func(vals []pdb.Value) bool) *ProbTable {
	out := &ProbTable{Width: t.Width}
	for _, r := range t.Rows {
		if pred(r.Vals) {
			out.Rows = append(out.Rows, r)
		}
	}
	return out
}
