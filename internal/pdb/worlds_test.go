package pdb

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/formula"
)

func TestInstantiate(t *testing.T) {
	s := formula.NewSpace()
	r := NewTupleIndependent(s, "R", []string{"a"},
		[][]Value{{1}, {2}, {3}}, []float64{0.5, 0.5, 0.5}, 0)
	world := map[formula.Var]formula.Val{
		r.Tups[0].Lin[0].Var: formula.True,
		r.Tups[1].Lin[0].Var: formula.False,
		r.Tups[2].Lin[0].Var: formula.True,
	}
	inst := Instantiate(r, world)
	if inst.Len() != 2 || inst.Tups[0].Vals[0] != 1 || inst.Tups[1].Vals[0] != 3 {
		t.Fatalf("instantiated %v", inst.Tups)
	}
	if len(inst.Tups[0].Lin) != 0 {
		t.Fatal("instantiated tuples must be deterministic")
	}
}

// TestPossibleWorldsSemantics is the end-to-end semantic cross-check:
// the confidence of a Boolean join query computed from lineage must
// equal the fraction of sampled worlds in which the deterministic query
// returns a result.
func TestPossibleWorldsSemantics(t *testing.T) {
	s := formula.NewSpace()
	r, u := tinyRelations(s)
	lin, any := BooleanAnswer(EquiJoin(r, u, 1, 0))
	if !any {
		t.Fatal("query empty")
	}
	want := exactP(s, lin)

	rng := rand.New(rand.NewSource(33))
	const n = 150_000
	hits := 0
	for i := 0; i < n; i++ {
		world := formula.SampleWorld(s, rng)
		rw := Instantiate(r, world)
		uw := Instantiate(u, world)
		if EquiJoin(rw, uw, 1, 0).Len() > 0 {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("world-sampled %v vs lineage confidence %v", got, want)
	}
}

func TestPossibleWorldsBID(t *testing.T) {
	// BID alternatives are mutually exclusive in every sampled world.
	s := formula.NewSpace()
	blocks := [][]BIDAlternative{{
		{Vals: []Value{1}, Prob: 0.4},
		{Vals: []Value{2}, Prob: 0.35},
	}}
	b := NewBID(s, "B", []string{"x"}, blocks, 0)
	rng := rand.New(rand.NewSource(7))
	counts := map[int]int{}
	const n = 100_000
	for i := 0; i < n; i++ {
		world := formula.SampleWorld(s, rng)
		inst := Instantiate(b, world)
		if inst.Len() > 1 {
			t.Fatal("mutually exclusive alternatives co-occurred")
		}
		counts[inst.Len()]++
	}
	// P(some alternative) = 0.75.
	got := float64(counts[1]) / n
	if math.Abs(got-0.75) > 0.01 {
		t.Fatalf("alternative frequency %v, want 0.75", got)
	}
}
