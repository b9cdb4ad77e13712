package tpch

import (
	"math/rand"

	"repro/internal/formula"
	"repro/internal/pdb"
	"repro/internal/plan"
)

// Skewed group-size workload: a fact relation whose join keys follow a
// Zipf distribution, joined to a small dimension table and grouped on a
// dimension column. The hot key's group carries a large fraction of the
// fact tuples, so the answers' lineage DNFs are deliberately unequal in
// size — the regime the benchmark measures alongside the uniform TPC-H
// tables.

// Relation tags for the skew workload (outside the TPC-H tag block).
const (
	tagSkewFact int32 = 100 + iota
	tagSkewDim
)

// SkewDB is a generated skewed-join workload.
type SkewDB struct {
	Space *formula.Space
	// Fact has columns f_key, f_seq; f_key is Zipf-distributed.
	Fact *pdb.Relation
	// Dim has columns d_key, d_val with one row per key and
	// d_val = d_key mod 10 (the grouping column).
	Dim *pdb.Relation
}

// GenerateSkewed builds the workload: rows fact tuples over nKeys join
// keys drawn Zipf(skew) — skew ≤ 1 means uniform — and a dimension row
// per key, every tuple independent with probability uniform in (0, 1).
// Generation is deterministic in the seed.
func GenerateSkewed(rows, nKeys int, skew float64, seed int64) *SkewDB {
	if nKeys < 1 {
		nKeys = 1
	}
	rng := rand.New(rand.NewSource(seed))
	s := formula.NewSpace()
	draw := func() int { return rng.Intn(nKeys) }
	if skew > 1 && nKeys > 1 {
		z := rand.NewZipf(rng, skew, 1, uint64(nKeys-1))
		draw = func() int { return int(z.Uint64()) }
	}
	prob := func() float64 { return 1e-9 + (1-2e-9)*rng.Float64() }

	factRows := make([][]pdb.Value, rows)
	factProbs := make([]float64, rows)
	for i := range factRows {
		factRows[i] = []pdb.Value{pdb.Value(draw()), pdb.Value(i)}
		factProbs[i] = prob()
	}
	dimRows := make([][]pdb.Value, nKeys)
	dimProbs := make([]float64, nKeys)
	for k := range dimRows {
		dimRows[k] = []pdb.Value{pdb.Value(k), pdb.Value(k % 10)}
		dimProbs[k] = prob()
	}
	return &SkewDB{
		Space: s,
		Fact: pdb.NewTupleIndependent(s, "fact", []string{"f_key", "f_seq"},
			factRows, factProbs, tagSkewFact),
		Dim: pdb.NewTupleIndependent(s, "dim", []string{"d_key", "d_val"},
			dimRows, dimProbs, tagSkewDim),
	}
}

// JoinIR is the workload query: fact ⋈ dim on the key, grouped by
// d_val — Zipf keys then make the groups' lineage sizes imbalanced.
func (db *SkewDB) JoinIR() plan.Node {
	return &plan.GroupLineage{
		Input: &plan.EquiJoin{
			Left: &plan.Scan{Rel: db.Fact}, Right: &plan.Scan{Rel: db.Dim},
			LeftCol: 0, RightCol: 0,
		},
		Cols: []int{3}, // d_val
	}
}

// BooleanIR is the ungrouped (Boolean) variant of JoinIR.
func (db *SkewDB) BooleanIR() plan.Node {
	return &plan.GroupLineage{
		Input: &plan.EquiJoin{
			Left: &plan.Scan{Rel: db.Fact}, Right: &plan.Scan{Rel: db.Dim},
			LeftCol: 0, RightCol: 0,
		},
	}
}
