package sprout

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/formula"
	"repro/internal/pdb"
)

// buildRS creates tuple-independent R(A) and S(A,B) with random
// probabilities, plus the lineage DNF of the hierarchical Boolean query
// q() :- R(A), S(A,B) for cross-checking.
func buildRS(seed int64, nA, maxB int) (*formula.Space, *pdb.Relation, *pdb.Relation, formula.DNF) {
	rng := rand.New(rand.NewSource(seed))
	s := formula.NewSpace()
	var rRows, sRows [][]pdb.Value
	var rProbs, sProbs []float64
	for a := 0; a < nA; a++ {
		rRows = append(rRows, []pdb.Value{pdb.Value(a)})
		rProbs = append(rProbs, 0.05+0.9*rng.Float64())
		nb := 1 + rng.Intn(maxB)
		for b := 0; b < nb; b++ {
			sRows = append(sRows, []pdb.Value{pdb.Value(a), pdb.Value(100 + b)})
			sProbs = append(sProbs, 0.05+0.9*rng.Float64())
		}
	}
	r := pdb.NewTupleIndependent(s, "R", []string{"a"}, rRows, rProbs, 0)
	sl := pdb.NewTupleIndependent(s, "S", []string{"a", "b"}, sRows, sProbs, 1)
	lin, _ := pdb.BooleanAnswer(pdb.EquiJoin(r, sl, 0, 0))
	return s, r, sl, lin
}

// tableOf reads a tuple-independent (or deterministic) relation as a
// ProbTable, evaluating each tuple's lineage clause.
func tableOf(s *formula.Space, r *pdb.Relation) *ProbTable {
	t := &ProbTable{Width: len(r.Cols), Rows: make([]ProbRow, 0, len(r.Tups))}
	for _, tup := range r.Tups {
		t.Rows = append(t.Rows, ProbRow{Vals: tup.Vals, P: tup.Lin.Probability(s)})
	}
	return t
}

// booleanConf projects t onto no columns, the last operator of a
// Boolean safe plan: the probability that at least one of its
// independent rows exists.
func booleanConf(t *ProbTable) float64 {
	out := t.IndepProject(nil)
	if len(out.Rows) == 0 {
		return 0
	}
	return out.Rows[0].P
}

func TestSafePlanHierarchical(t *testing.T) {
	// Safe plan for q() :- R(A), S(A,B):
	//   π∅ ( R ⋈_A (π_A S) )  with independent-project and -join.
	for seed := int64(0); seed < 20; seed++ {
		s, r, sl, lin := buildRS(seed, 4, 3)
		sProj := tableOf(s, sl).IndepProject([]int{0})
		got := booleanConf(IndepJoinOn(tableOf(s, r), sProj, []int{0}, []int{0}, []int{0}))
		want, err := core.ExactCtx(context.Background(), s, lin, core.Options{})
		if err != nil || math.Abs(got-want.Estimate) > 1e-9 {
			t.Fatalf("seed %d: safe plan %v, d-tree exact %v (%v)", seed, got, want.Estimate, err)
		}
	}
}

func TestSafePlanMatchesBruteForce(t *testing.T) {
	s, r, sl, lin := buildRS(5, 3, 2)
	sProj := tableOf(s, sl).IndepProject([]int{0})
	got := booleanConf(IndepJoinOn(tableOf(s, r), sProj, []int{0}, []int{0}, []int{0}))
	want := formula.BruteForceProbability(s, lin)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("safe plan %v, brute force %v", got, want)
	}
}

func TestIndepProjectGrouping(t *testing.T) {
	tbl := &ProbTable{
		Width: 2,
		Rows: []ProbRow{
			{Vals: []pdb.Value{1, 10}, P: 0.5},
			{Vals: []pdb.Value{1, 11}, P: 0.5},
			{Vals: []pdb.Value{2, 12}, P: 0.25},
		},
	}
	out := tbl.IndepProject([]int{0})
	if len(out.Rows) != 2 {
		t.Fatalf("got %d groups, want 2", len(out.Rows))
	}
	if math.Abs(out.Rows[0].P-0.75) > 1e-12 {
		t.Fatalf("group 1 P = %v, want 0.75", out.Rows[0].P)
	}
	if math.Abs(out.Rows[1].P-0.25) > 1e-12 {
		t.Fatalf("group 2 P = %v, want 0.25", out.Rows[1].P)
	}
}

func TestIndepJoin(t *testing.T) {
	l := &ProbTable{Width: 1, Rows: []ProbRow{
		{Vals: []pdb.Value{1}, P: 0.5},
		{Vals: []pdb.Value{2}, P: 0.4},
	}}
	r := &ProbTable{Width: 2, Rows: []ProbRow{
		{Vals: []pdb.Value{1, 7}, P: 0.3},
		{Vals: []pdb.Value{1, 8}, P: 0.2},
		{Vals: []pdb.Value{3, 9}, P: 0.9},
	}}
	j := IndepJoinOn(l, r, []int{0}, []int{0}, []int{0, 1, 2})
	if len(j.Rows) != 2 || j.Width != 3 {
		t.Fatalf("join rows %d, want 2", len(j.Rows))
	}
	for _, row := range j.Rows {
		if row.Vals[0] != 1 {
			t.Fatalf("unexpected join row %v", row)
		}
	}
	if math.Abs(j.Rows[0].P-0.15) > 1e-12 && math.Abs(j.Rows[0].P-0.1) > 1e-12 {
		t.Fatalf("row P = %v", j.Rows[0].P)
	}
}

func TestSelectAndBooleanProject(t *testing.T) {
	tbl := &ProbTable{Width: 1, Rows: []ProbRow{
		{Vals: []pdb.Value{1}, P: 0.5},
		{Vals: []pdb.Value{2}, P: 0.5},
		{Vals: []pdb.Value{3}, P: 0.5},
	}}
	sel := tbl.Select(func(v []pdb.Value) bool { return v[0] >= 2 })
	if len(sel.Rows) != 2 {
		t.Fatalf("selected %d", len(sel.Rows))
	}
	if got := booleanConf(sel); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("confidence %v, want 0.75", got)
	}
	if out := (&ProbTable{}).IndepProject(nil); len(out.Rows) != 0 {
		t.Fatalf("empty table projects to %v", out.Rows)
	}
}
