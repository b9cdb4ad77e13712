package pdb

import (
	"fmt"
	"runtime/debug"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/formula"
)

// TestDisjointLineage pins the summary on every kind of relation the
// planner meets.
func TestDisjointLineage(t *testing.T) {
	s := formula.NewSpace()
	s.AddBool(0.5) // variable 0 belongs to no relation below
	ti, _ := tinyRelations(s)
	det := NewDeterministic("D", []string{"a"}, [][]Value{{1}, {2}})
	single := NewBID(s, "B1", []string{"k"}, [][]BIDAlternative{
		{{Vals: []Value{1}, Prob: 0.3}},
		{{Vals: []Value{2}, Prob: 0.6}},
	}, 2)
	multi := NewBID(s, "B2", []string{"k", "alt"}, [][]BIDAlternative{
		{{Vals: []Value{1, 0}, Prob: 0.3}},
		{{Vals: []Value{2, 0}, Prob: 0.5}, {Vals: []Value{2, 1}, Prob: 0.2}},
	}, 3)
	shared := &Relation{Name: "S", Cols: []string{"a"}, Tups: []Tuple{
		{Vals: []Value{1}, Lin: ti.Tups[0].Lin},
		{Vals: []Value{2}, Lin: formula.MustClause(formula.Pos(ti.Tups[2].Lin[0].Var), formula.Pos(ti.Tups[0].Lin[0].Var))},
	}}
	empty := &Relation{Name: "E", Cols: []string{"a"}}

	cases := []struct {
		name   string
		rel    *Relation
		lo, hi formula.Var
		ok     bool
	}{
		{"tuple-independent", ti, 1, 3, true},
		{"BID, singleton blocks", single, 7, 8, true},
		{"BID, a two-alternative block", multi, 9, 10, false},
		{"hand-built, shared variables", shared, 1, 3, false},
	}
	for _, c := range cases {
		lo, hi, ok := c.rel.DisjointLineage()
		if lo != c.lo || hi != c.hi || ok != c.ok {
			t.Errorf("%s: DisjointLineage = [%d, %d] %v, want [%d, %d] %v", c.name, lo, hi, ok, c.lo, c.hi, c.ok)
		}
	}
	for _, r := range []*Relation{det, empty} {
		if lo, hi, ok := r.DisjointLineage(); lo <= hi || !ok {
			t.Errorf("%s: DisjointLineage = [%d, %d] %v, want an empty range, disjoint", r.Name, lo, hi, ok)
		}
	}
}

// TestDisjointLineageTracksAppendAndReslice: the memo is keyed on the
// Tups slice, so appending to or reslicing it recomputes the summary.
func TestDisjointLineageTracksAppendAndReslice(t *testing.T) {
	s := formula.NewSpace()
	r, _ := tinyRelations(s) // variables 0, 1, 2
	if lo, hi, ok := r.DisjointLineage(); lo != 0 || hi != 2 || !ok {
		t.Fatalf("before append: [%d, %d] %v", lo, hi, ok)
	}
	fresh := s.AddBool(0.5)
	r.Tups = append(r.Tups, Tuple{Vals: []Value{4, 40}, Lin: formula.MustClause(formula.Pos(fresh))})
	if lo, hi, ok := r.DisjointLineage(); lo != 0 || hi != fresh || !ok {
		t.Fatalf("after a fresh append: [%d, %d] %v, want [0, %d] true", lo, hi, ok, fresh)
	}
	r.Tups = append(r.Tups, Tuple{Vals: []Value{5, 50}, Lin: r.Tups[0].Lin})
	if _, _, ok := r.DisjointLineage(); ok {
		t.Fatal("after appending a repeated variable: still disjoint")
	}
	r.Tups = r.Tups[1:] // drops the first occurrence
	if lo, hi, ok := r.DisjointLineage(); lo != 0 || hi != fresh || !ok {
		t.Fatalf("after reslicing the repeat away: [%d, %d] %v, want [0, %d] true", lo, hi, ok, fresh)
	}
	r.Tups = r.Tups[:0]
	if lo, hi, ok := r.DisjointLineage(); lo <= hi || !ok {
		t.Fatalf("after reslicing to empty: [%d, %d] %v", lo, hi, ok)
	}
}

// TestDisjointLineageConcurrentFirstCalls: racing first calls each
// compute or load a summary, and all agree (run under -race).
func TestDisjointLineageConcurrentFirstCalls(t *testing.T) {
	s := formula.NewSpace()
	rows := make([][]Value, 2000)
	probs := make([]float64, len(rows))
	for i := range rows {
		rows[i], probs[i] = []Value{Value(i)}, 0.5
	}
	r := NewTupleIndependent(s, "R", []string{"a"}, rows, probs, 0)
	const workers = 8
	type result struct {
		lo, hi formula.Var
		ok     bool
	}
	got := make([]result, workers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo, hi, ok := r.DisjointLineage()
			got[i] = result{lo, hi, ok}
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != (result{0, formula.Var(len(rows) - 1), true}) {
			t.Errorf("worker %d: DisjointLineage = [%d, %d] %v", i, g.lo, g.hi, g.ok)
		}
	}
}

// TestNewTupleIndependentAllocationsFlat: construction allocates the
// relation, its tuples, one lineage block and the space's arrays — the
// same count at 10 rows as at 10 000.
func TestNewTupleIndependentAllocationsFlat(t *testing.T) {
	// A collection starting mid-run allocates too; keep it out.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(n int) float64 {
		rows := make([][]Value, n)
		probs := make([]float64, n)
		for i := range rows {
			rows[i] = []Value{Value(i)}
			probs[i] = 0.5
		}
		return testing.AllocsPerRun(20, func() {
			NewTupleIndependent(formula.NewSpace(), "R", []string{"a"}, rows, probs, 1)
		})
	}
	if small, large := allocs(10), allocs(10_000); small != large {
		t.Fatalf("NewTupleIndependent allocates %v times at 10 rows, %v at 10 000", small, large)
	}
}

// TestRelationLineageLayout: every tuple's lineage is one atom of the
// relation's one atom block, sliced cap = len, so appending to a Lin
// never writes into a neighbour's.
func TestRelationLineageLayout(t *testing.T) {
	s := formula.NewSpace()
	ti, _ := tinyRelations(s)
	bid := NewBID(s, "B", []string{"k"}, [][]BIDAlternative{
		{{Vals: []Value{1}, Prob: 0.3}, {Vals: []Value{2}, Prob: 0.6}},
		nil,
		{{Vals: []Value{3}, Prob: 0.5}},
	}, 2)
	for _, r := range []*Relation{ti, bid} {
		base := uintptr(unsafe.Pointer(&r.Tups[0].Lin[0]))
		for i, tup := range r.Tups {
			if len(tup.Lin) != 1 || cap(tup.Lin) != 1 {
				t.Fatalf("%s tuple %d: Lin len %d cap %d, want 1 and 1", r.Name, i, len(tup.Lin), cap(tup.Lin))
			}
			if off := uintptr(unsafe.Pointer(&tup.Lin[0])) - base; off != uintptr(i)*unsafe.Sizeof(formula.Atom{}) {
				t.Fatalf("%s tuple %d: atom at offset %d of the block, want %d", r.Name, i, off, uintptr(i)*unsafe.Sizeof(formula.Atom{}))
			}
		}
	}
}

// TestRelationNamesByRule: every variable a constructor adds is named
// exactly as "<name>#<row>" (tuple-independent) or "<name>/blk<block>"
// (BID, counting empty blocks), and explicit names win.
func TestRelationNamesByRule(t *testing.T) {
	s := formula.NewSpace()
	s.AddBool(0.5)
	ti := NewTupleIndependent(s, "T", []string{"a"}, [][]Value{{1}, {2}, {3}}, []float64{0.1, 0.2, 0.3}, 1)
	alt := func(v Value, p float64) BIDAlternative { return BIDAlternative{Vals: []Value{v}, Prob: p} }
	bid := NewBID(s, "B", []string{"k"}, [][]BIDAlternative{
		nil,
		{alt(1, 0.3), alt(2, 0.4)},
		{alt(3, 1)},
		{},
		{alt(4, 0.5)},
		nil,
	}, 2)
	empty := NewBID(s, "E", []string{"k"}, [][]BIDAlternative{nil, {}}, 3)
	want := map[formula.Var]string{0: "x0"}
	for i, tup := range ti.Tups {
		want[tup.Lin[0].Var] = fmt.Sprintf("T#%d", i)
	}
	for i, blk := range []int{1, 1, 2, 4} {
		want[bid.Tups[i].Lin[0].Var] = fmt.Sprintf("B/blk%d", blk)
	}
	if len(empty.Tups) != 0 || len(want) != s.NumVars() || s.NumVars() != 7 {
		t.Fatalf("%d variables, %d expected names, %d tuples in the empty BID", s.NumVars(), len(want), len(empty.Tups))
	}
	for v, w := range want {
		if got := s.Name(v); got != w {
			t.Errorf("Name(%d) = %q, want %q", v, got, w)
		}
	}
	s.SetName(ti.Tups[1].Lin[0].Var, "mine")
	if got := s.Name(ti.Tups[1].Lin[0].Var); got != "mine" {
		t.Errorf("explicit name lost to the run: %q", got)
	}
}
