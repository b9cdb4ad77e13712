package tpch

import (
	"math/rand"

	"repro/internal/formula"
	"repro/internal/pdb"
	"repro/internal/plan"
)

// Relation tags of the hard R-S-T workload (outside the TPC-H and skew
// tag blocks).
const (
	tagRSTX int32 = 200 + iota
	tagRSTY
	tagRSTE
)

// HardRST is the unsafe R(x), S(x, y), T(y) ranking workload: x(i),
// y(j) and e(i, j, g) over one space, one non-read-once DNF per group g.
type HardRST struct {
	Space   *formula.Space
	X, Y, E *pdb.Relation
}

// GenerateHardRST builds the workload from seed: side x and y rows with
// p ∈ (0.3, 0.8); each of the groups×side×side candidate edges present
// with probability ½ (a half-dense grid), its probability the group's
// base U(0.02, 0.32) scaled by U(0.5, 1.5). The spread of bases is what
// gives top-k a confidence ladder to separate. The x, y probabilities
// and the bases are stratified (one draw per equal-width stratum, in
// seeded random order), so that two seeds give datasets of the same
// make-up.
func GenerateHardRST(seed int64, side, groups int) *HardRST {
	s := formula.NewSpace()
	rng := rand.New(rand.NewSource(seed))
	unary := func(name string, tag int32) *pdb.Relation {
		rows := make([][]pdb.Value, side)
		probs := make([]float64, side)
		perm := rng.Perm(side)
		for i := range rows {
			rows[i] = []pdb.Value{pdb.Value(i)}
			probs[i] = 0.3 + 0.5*(float64(perm[i])+rng.Float64())/float64(side)
		}
		return pdb.NewTupleIndependent(s, name, []string{name + "_k"}, rows, probs, tag)
	}
	x := unary("x", tagRSTX)
	y := unary("y", tagRSTY)
	var rows [][]pdb.Value
	var probs []float64
	strata := rng.Perm(groups)
	for g := 0; g < groups; g++ {
		base := 0.02 + 0.30*(float64(strata[g])+rng.Float64())/float64(groups)
		for i := 0; i < side; i++ {
			for j := 0; j < side; j++ {
				if rng.Intn(2) == 0 {
					continue
				}
				rows = append(rows, []pdb.Value{pdb.Value(i), pdb.Value(j), pdb.Value(g)})
				probs = append(probs, base*(0.5+rng.Float64()))
			}
		}
	}
	e := pdb.NewTupleIndependent(s, "e", []string{"e_i", "e_j", "e_g"}, rows, probs, tagRSTE)
	return &HardRST{Space: s, X: x, Y: y, E: e}
}

// WindowIR is the ranked query over groups [a, a+width): x ⋈ σ(e) ⋈ y
// grouped by e_g, top k. The window is two nested single-comparison
// filters, the form a wire query expresses.
func (d *HardRST) WindowIR(a int64, width, k int) plan.Node {
	lo, hi := pdb.Value(a), pdb.Value(a+int64(width))
	e := &plan.Select{
		Input: &plan.Select{
			Input: &plan.Scan{Rel: d.E},
			Pred:  func(v []pdb.Value) bool { return v[2] >= lo },
		},
		Pred: func(v []pdb.Value) bool { return v[2] < hi },
	}
	xe := &plan.EquiJoin{Left: &plan.Scan{Rel: d.X}, Right: e, LeftCol: 0, RightCol: 0}
	xey := &plan.EquiJoin{Left: xe, Right: &plan.Scan{Rel: d.Y}, LeftCol: 2, RightCol: 0}
	// The joined schema is [x_k, e_i, e_j, e_g, y_k]: group on e_g.
	return &plan.TopK{Input: &plan.GroupLineage{Input: xey, Cols: []int{3}}, K: k}
}
