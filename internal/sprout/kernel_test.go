package sprout

import (
	"math"
	"slices"
	"testing"

	"repro/internal/pdb"
)

// Direct tests of the grouping kernel's exported surface. The bitwise
// differential against the string-keyed operators it replaced runs one
// level up, in internal/plan, over whole safe plans.

func TestGrouperOrderGrowthAndBooleanHead(t *testing.T) {
	// 1000 distinct keys, each met twice, inserted in descending numeric
	// order: the table doubles six times and Table re-sorts into
	// pdb.CompareValueKeys order.
	g := NewGrouper(1)
	for rep := 0; rep < 2; rep++ {
		for v := 999; v >= 0; v-- {
			g.Add([]pdb.Value{7, pdb.Value(v - 300)}, []int{1}, 0.5)
		}
	}
	tbl := g.Table()
	if len(tbl.Rows) != 1000 {
		t.Fatalf("%d groups, want 1000", len(tbl.Rows))
	}
	for i, r := range tbl.Rows {
		if r.P != 0.75 {
			t.Fatalf("group %v: P = %v, want 0.75", r.Vals, r.P)
		}
		if i > 0 && pdb.CompareValueKeys(tbl.Rows[i-1].Vals, r.Vals) >= 0 {
			t.Fatalf("rows %v, %v out of key order", tbl.Rows[i-1].Vals, r.Vals)
		}
		if cap(r.Vals) != 1 {
			t.Fatalf("row %v has capacity %d: an append would write into its neighbour", r.Vals, cap(r.Vals))
		}
	}
	// 256 sorts before 1 sorts before 255 sorts before -1.
	idx := func(v pdb.Value) int {
		return slices.IndexFunc(tbl.Rows, func(r ProbRow) bool { return r.Vals[0] == v })
	}
	if !(idx(256) < idx(1) && idx(1) < idx(255) && idx(255) < idx(-1)) {
		t.Fatalf("positions of 256, 1, 255, -1: %d, %d, %d, %d", idx(256), idx(1), idx(255), idx(-1))
	}

	// The zero-width projection: no group without a row, one with any.
	b := NewGrouper(0)
	if rows := NewGrouper(0).Table().Rows; len(rows) != 0 {
		t.Fatalf("empty Boolean projection has %d rows", len(rows))
	}
	b.Add([]pdb.Value{1, 2}, nil, 0.5)
	b.Add([]pdb.Value{3, 4}, nil, 0.5)
	if rows := b.Table().Rows; len(rows) != 1 || len(rows[0].Vals) != 0 || rows[0].P != 0.75 {
		t.Fatalf("Boolean projection: %+v", rows)
	}
}

func TestIndepJoinOnKeysKeepAndOrder(t *testing.T) {
	l := &ProbTable{Width: 2, Rows: []ProbRow{
		{Vals: []pdb.Value{1, 10}, P: 0.5},
		{Vals: []pdb.Value{2, 20}, P: 0.25},
		{Vals: []pdb.Value{1, 11}, P: 0.125},
	}}
	r := &ProbTable{Width: 3, Rows: []ProbRow{
		{Vals: []pdb.Value{10, 1, 100}, P: 0.5},
		{Vals: []pdb.Value{20, 1, 200}, P: 0.5},
		{Vals: []pdb.Value{10, 1, 300}, P: 0.25},
		{Vals: []pdb.Value{20, 2, 400}, P: 0.5},
	}}
	rowsOf := func(t *ProbTable) (out [][]pdb.Value, ps []float64) {
		for _, r := range t.Rows {
			out = append(out, r.Vals)
			ps = append(ps, r.P)
		}
		return
	}
	eq := func(a, b [][]pdb.Value) bool {
		return slices.EqualFunc(a, b, func(x, y []pdb.Value) bool { return slices.Equal(x, y) })
	}

	// Two-column key, right column first in the output, left columns after.
	j := IndepJoinOn(l, r, []int{0, 1}, []int{1, 0}, []int{4, 0, 1})
	rows, ps := rowsOf(j)
	if want := [][]pdb.Value{{100, 1, 10}, {300, 1, 10}, {400, 2, 20}}; !eq(rows, want) {
		t.Fatalf("two-column join rows %v, want %v (left-row-major, right rows in order)", rows, want)
	}
	if want := []float64{0.25, 0.125, 0.125}; !slices.Equal(ps, want) {
		t.Fatalf("two-column join P %v, want %v", ps, want)
	}
	if j.Width != 3 {
		t.Fatalf("width %d, want 3", j.Width)
	}

	// No key: the Cartesian product, left-row-major.
	x := IndepJoinOn(l, r, nil, nil, []int{1, 4})
	rows, _ = rowsOf(x)
	if len(rows) != 12 || !slices.Equal(rows[0], []pdb.Value{10, 100}) || !slices.Equal(rows[3], []pdb.Value{10, 400}) ||
		!slices.Equal(rows[4], []pdb.Value{20, 100}) || !slices.Equal(rows[11], []pdb.Value{11, 400}) {
		t.Fatalf("cross product rows %v", rows)
	}
	if math.Abs(x.Rows[11].P-0.125*0.5) > 0 {
		t.Fatalf("cross product P %v", x.Rows[11].P)
	}

	// An empty side joins to nothing.
	if e := IndepJoinOn(l, &ProbTable{Width: r.Width}, []int{0}, []int{1}, []int{0}); len(e.Rows) != 0 {
		t.Fatalf("join with an empty table: %v", e.Rows)
	}
}
