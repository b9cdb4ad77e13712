package pdb

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/formula"
)

func tinyRelations(s *formula.Space) (*Relation, *Relation) {
	r := NewTupleIndependent(s, "R", []string{"a", "b"},
		[][]Value{{1, 10}, {2, 20}, {3, 20}},
		[]float64{0.5, 0.6, 0.7}, 0)
	t := NewTupleIndependent(s, "T", []string{"b", "c"},
		[][]Value{{10, 100}, {20, 200}, {20, 300}},
		[]float64{0.2, 0.3, 0.4}, 1)
	return r, t
}

func TestSelect(t *testing.T) {
	s := formula.NewSpace()
	r, _ := tinyRelations(s)
	out := Select(r, func(v []Value) bool { return v[1] == 20 })
	if out.Len() != 2 {
		t.Fatalf("selected %d tuples, want 2", out.Len())
	}
	for _, tup := range out.Tups {
		if len(tup.Lin) != 1 {
			t.Fatal("selection must preserve lineage")
		}
	}
}

func TestEquiJoinLineage(t *testing.T) {
	s := formula.NewSpace()
	r, u := tinyRelations(s)
	j := EquiJoin(r, u, 1, 0)
	// (1,10)x(10,100); (2,20)x(20,200); (2,20)x(20,300); (3,20)x both.
	if j.Len() != 5 {
		t.Fatalf("join produced %d tuples, want 5", j.Len())
	}
	for _, tup := range j.Tups {
		if len(tup.Lin) != 2 {
			t.Fatalf("joined lineage should have 2 atoms, got %v", tup.Lin)
		}
	}
	if len(j.Cols) != 4 {
		t.Fatalf("join schema %v", j.Cols)
	}
}

func TestEquiJoinDropsInconsistentLineage(t *testing.T) {
	// Two mutually exclusive BID alternatives can never join.
	s := formula.NewSpace()
	blocks := [][]BIDAlternative{{
		{Vals: []Value{1, 7}, Prob: 0.4},
		{Vals: []Value{1, 8}, Prob: 0.6},
	}}
	b := NewBID(s, "B", []string{"k", "x"}, blocks, 0)
	j := EquiJoin(b, b, 0, 0) // self-join on key
	// Of the 4 combinations only the 2 same-alternative pairs survive.
	if j.Len() != 2 {
		t.Fatalf("join produced %d tuples, want 2", j.Len())
	}
}

func TestThetaJoinInequality(t *testing.T) {
	s := formula.NewSpace()
	r := NewTupleIndependent(s, "R", []string{"x"},
		[][]Value{{1}, {5}}, []float64{0.5, 0.5}, 0)
	u := NewTupleIndependent(s, "U", []string{"y"},
		[][]Value{{3}, {7}}, []float64{0.5, 0.5}, 1)
	j := ThetaJoin(r, u, func(lv, rv []Value) bool { return lv[0] < rv[0] })
	// pairs: (1,3), (1,7), (5,7)
	if j.Len() != 3 {
		t.Fatalf("theta join produced %d tuples, want 3", j.Len())
	}
}

func TestGroupProjectBuildsDNF(t *testing.T) {
	s := formula.NewSpace()
	r, u := tinyRelations(s)
	j := EquiJoin(r, u, 1, 0)
	// Project onto T.c (column 3): c=200 reachable via (2,20) and (3,20).
	answers := GroupProject(j, []int{3})
	if len(answers) != 3 {
		t.Fatalf("got %d answers, want 3", len(answers))
	}
	byVal := map[Value]Answer{}
	for _, a := range answers {
		byVal[a.Vals[0]] = a
	}
	if len(byVal[200].Lin) != 2 {
		t.Fatalf("answer 200 lineage %v, want 2 clauses", byVal[200].Lin)
	}
	if len(byVal[100].Lin) != 1 {
		t.Fatalf("answer 100 lineage %v, want 1 clause", byVal[100].Lin)
	}
	// Confidence of answer 200: (r2∧t2) ∨ (r3∧t2) ∨ ... wait t2,t3 are
	// distinct T tuples: (2,20,20,200) uses t#1, (3,20,20,200) uses t#1.
	// P = P((r2 ∨ r3) ∧ t2) = (1-(1-.6)(1-.7))·0.3.
	want := (1 - 0.4*0.3) * 0.3
	got := exactP(s, byVal[200].Lin)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("answer 200 confidence %v, want %v", got, want)
	}
}

func TestBooleanAnswer(t *testing.T) {
	s := formula.NewSpace()
	r, u := tinyRelations(s)
	j := EquiJoin(r, u, 1, 0)
	lin, any := BooleanAnswer(j)
	if !any || len(lin) != 5 {
		t.Fatalf("boolean lineage %v any=%v", lin, any)
	}
	empty := &Relation{Name: "empty", Cols: []string{"x"}}
	if _, any := BooleanAnswer(empty); any {
		t.Fatal("empty relation should report no answer")
	}
}

func TestDeterministicRelation(t *testing.T) {
	s := formula.NewSpace()
	d := NewDeterministic("D", []string{"k"}, [][]Value{{1}, {2}})
	r := NewTupleIndependent(s, "R", []string{"k"}, [][]Value{{1}, {2}}, []float64{0.5, 0.25}, 0)
	j := EquiJoin(d, r, 0, 0)
	if j.Len() != 2 {
		t.Fatalf("join len %d", j.Len())
	}
	for _, tup := range j.Tups {
		if len(tup.Lin) != 1 {
			t.Fatalf("deterministic side must contribute ⊤, lineage %v", tup.Lin)
		}
	}
}

func TestBIDLeftoverProbability(t *testing.T) {
	s := formula.NewSpace()
	blocks := [][]BIDAlternative{{
		{Vals: []Value{1}, Prob: 0.3},
		{Vals: []Value{2}, Prob: 0.2},
	}}
	b := NewBID(s, "B", []string{"x"}, blocks, 0)
	if b.Len() != 2 {
		t.Fatalf("len %d", b.Len())
	}
	// The block variable must have a third value carrying the remaining
	// 0.5 ("no alternative present").
	v := b.Tups[0].Lin[0].Var
	if s.DomainSize(v) != 3 {
		t.Fatalf("domain size %d, want 3", s.DomainSize(v))
	}
	p0 := exactP(s, formula.NewDNF(b.Tups[0].Lin))
	p1 := exactP(s, formula.NewDNF(b.Tups[1].Lin))
	if math.Abs(p0-0.3) > 1e-12 || math.Abs(p1-0.2) > 1e-12 {
		t.Fatalf("alternative probabilities %v, %v", p0, p1)
	}
	// Alternatives are mutually exclusive.
	both := formula.NewDNF(b.Tups[0].Lin).And(formula.NewDNF(b.Tups[1].Lin))
	if len(both) != 0 {
		t.Fatalf("alternatives should be inconsistent, got %v", both)
	}
}

func TestRename(t *testing.T) {
	s := formula.NewSpace()
	r, _ := tinyRelations(s)
	rr := Rename(r, "R2", []string{"x", "y"})
	if rr.MustCol("x") != 0 || rr.MustCol("y") != 1 {
		t.Fatal("renamed columns not found")
	}
	if rr.Len() != r.Len() {
		t.Fatal("rename must preserve tuples")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustCol on unknown column should panic")
		}
	}()
	rr.MustCol("nope")
}

func TestGroupProjectDeterministicOrder(t *testing.T) {
	s := formula.NewSpace()
	r := NewTupleIndependent(s, "R", []string{"a"},
		[][]Value{{3}, {1}, {2}, {1}}, []float64{0.1, 0.2, 0.3, 0.4}, 0)
	answers := GroupProject(r, []int{0})
	if len(answers) != 3 {
		t.Fatalf("got %d answers", len(answers))
	}
	if answers[0].Vals[0] != 1 || answers[1].Vals[0] != 2 || answers[2].Vals[0] != 3 {
		t.Fatalf("order %v %v %v", answers[0].Vals, answers[1].Vals, answers[2].Vals)
	}
	if len(answers[0].Lin) != 2 {
		t.Fatalf("answer 1 should have 2 clauses, got %v", answers[0].Lin)
	}
}

// TestGroupProjectAllocsNotPerTuple: a tuple of a group already seen
// costs no key string and no value vector — 10 000 tuples in 4 groups
// allocate by the group (and its DNF's amortized growth), where one key
// and one vector per tuple made it over 20 000.
func TestGroupProjectAllocsNotPerTuple(t *testing.T) {
	const n = 10_000
	s := formula.NewSpace()
	rows := make([][]Value, n)
	probs := make([]float64, n)
	for i := range rows {
		rows[i] = []Value{Value(i % 4), Value(i)}
		probs[i] = 0.5
	}
	r := NewTupleIndependent(s, "R", []string{"g", "v"}, rows, probs, 0)
	if a := testing.AllocsPerRun(5, func() {
		if got := GroupProject(r, []int{0}); len(got) != 4 {
			t.Fatalf("%d groups", len(got))
		}
	}); a > 200 {
		t.Fatalf("GroupProject over %d tuples in 4 groups: %v allocations, want at most 200", n, a)
	}
}

func TestOperatorsDoNotAliasInputVals(t *testing.T) {
	s := formula.NewSpace()
	r, u := tinyRelations(s)

	sel := Select(r, func(v []Value) bool { return true })
	sel.Tups[0].Vals[0] = -99
	if r.Tups[0].Vals[0] != 1 {
		t.Fatal("mutating a Select output corrupted the input relation")
	}

	j := EquiJoin(r, u, 1, 0)
	j.Tups[0].Vals[0] = -99
	if r.Tups[0].Vals[0] != 1 || u.Tups[0].Vals[0] != 10 {
		t.Fatal("mutating an EquiJoin output corrupted an input relation")
	}

	th := ThetaJoin(r, u, func(lv, rv []Value) bool { return true })
	th.Tups[0].Vals[0] = -99
	if r.Tups[0].Vals[0] != 1 {
		t.Fatal("mutating a ThetaJoin output corrupted the input relation")
	}

	answers := GroupProject(r, []int{0})
	answers[0].Vals[0] = -99
	for _, tup := range r.Tups {
		if tup.Vals[0] == -99 {
			t.Fatal("mutating a GroupProject answer corrupted the input relation")
		}
	}
}

func TestDerivedNamesDeterministicAndBounded(t *testing.T) {
	if got := DerivedName("σ", "R"); got != "σ(R)" {
		t.Fatalf("select name %q", got)
	}
	if got := DerivedName("⋈", "R", "T"); got != "(R⋈T)" {
		t.Fatalf("join name %q", got)
	}
	// Nested compositions stay bounded and deterministic.
	name := "lineitem"
	for i := 0; i < 40; i++ {
		name = DerivedName("⋈", name, "partsupp")
		if len(name) > maxDerivedName {
			t.Fatalf("iteration %d: name %q exceeds cap", i, name)
		}
	}
	again := "lineitem"
	for i := 0; i < 40; i++ {
		again = DerivedName("⋈", again, "partsupp")
	}
	if name != again {
		t.Fatalf("derived names not deterministic: %q vs %q", name, again)
	}
	// Operators keep using the scheme.
	s := formula.NewSpace()
	r, u := tinyRelations(s)
	if got := EquiJoin(r, u, 1, 0).Name; got != "(R⋈T)" {
		t.Fatalf("EquiJoin name %q", got)
	}
	if got := Select(r, func([]Value) bool { return true }).Name; got != "σ(R)" {
		t.Fatalf("Select name %q", got)
	}
}

// TestCompareValueKeysIsValsKeyOrder: the comparator is the string order
// of the ValsKey encoding, on values where that is not numeric order
// (negatives, 2⁸ and above) and on vectors of different lengths.
func TestCompareValueKeysIsValsKeyOrder(t *testing.T) {
	odd := []Value{math.MinInt64, -65536, -256, -1, 0, 1, 2, 124, 255, 256, 257, 65535, 65536, 1 << 32, math.MaxInt64}
	vecs := [][]Value{nil}
	for _, a := range odd {
		vecs = append(vecs, []Value{a})
		for _, b := range odd {
			vecs = append(vecs, []Value{a, b})
		}
	}
	sign := func(x int) int {
		switch {
		case x < 0:
			return -1
		case x > 0:
			return 1
		}
		return 0
	}
	for _, a := range vecs {
		for _, b := range vecs {
			if got, want := sign(CompareValueKeys(a, b)), strings.Compare(ValsKey(a), ValsKey(b)); got != want {
				t.Fatalf("CompareValueKeys(%v, %v) = %d, ValsKey order %d", a, b, got, want)
			}
		}
	}
	if CompareValueKeys([]Value{256}, []Value{1}) >= 0 {
		t.Fatal("256 must sort before 1: the key order is byte-reversed, not numeric")
	}
}

// Conjunctive queries composed from the operators, the way the plan
// package's eager reference (evalIR in plan/oracle_test.go) composes
// them for every IR query: selections, equi-joins with and without a
// residual predicate over the concatenated schema, theta joins, and a
// grouped or Boolean head.

func TestQueryEquiJoinProject(t *testing.T) {
	s := formula.NewSpace()
	r, u := tinyRelations(s)
	// q(c) :- R(a, b), T(b, c). Groups come out in CompareValueKeys
	// order: 300 (0x12c) before 100 (0x64) before 200 (0xc8).
	answers := GroupProject(EquiJoin(r, u, 1, 0), []int{3})
	want := []struct {
		c Value
		p float64
	}{
		{300, (1 - 0.4*0.3) * 0.4}, // (r2 ∨ r3) ∧ t3
		{100, 0.5 * 0.2},           // r1 ∧ t1
		{200, (1 - 0.4*0.3) * 0.3}, // (r2 ∨ r3) ∧ t2
	}
	if len(answers) != len(want) {
		t.Fatalf("got %d answers, want %d", len(answers), len(want))
	}
	for i, w := range want {
		if answers[i].Vals[0] != w.c {
			t.Fatalf("answer %d is %v, want %d", i, answers[i].Vals, w.c)
		}
		if got := exactP(s, answers[i].Lin); math.Abs(got-w.p) > 1e-12 {
			t.Fatalf("answer %d: conf %v, want %v", w.c, got, w.p)
		}
	}
}

func TestQueryBoolean(t *testing.T) {
	s := formula.NewSpace()
	r, u := tinyRelations(s)
	// q() :- R(a, 20), T(20, c): rows (2,20),(3,20) × (20,200),(20,300).
	lin, some := BooleanAnswer(EquiJoin(Select(r, func(v []Value) bool { return v[1] == 20 }), u, 1, 0))
	if !some || len(lin) != 4 {
		t.Fatalf("lineage %v (some=%v), want 4 clauses", lin, some)
	}
}

func TestQueryBooleanEmpty(t *testing.T) {
	s := formula.NewSpace()
	r, u := tinyRelations(s)
	if lin, some := BooleanAnswer(EquiJoin(Select(r, func([]Value) bool { return false }), u, 1, 0)); some || lin != nil {
		t.Fatalf("expected no answer, got %v", lin)
	}
}

func TestQueryThetaJoin(t *testing.T) {
	s := formula.NewSpace()
	r := NewTupleIndependent(s, "R", []string{"x"},
		[][]Value{{1}, {5}, {9}}, []float64{0.5, 0.5, 0.5}, 0)
	u := NewTupleIndependent(s, "U", []string{"y"},
		[][]Value{{3}, {7}}, []float64{0.5, 0.5}, 1)
	// q(y) :- R(x), U(y), x < y: y=3 via x=1; y=7 via x=1 and x=5.
	answers := GroupProject(ThetaJoin(r, u, func(l, rv []Value) bool { return l[0] < rv[0] }), []int{1})
	if len(answers) != 2 || len(answers[0].Lin) != 1 || len(answers[1].Lin) != 2 {
		t.Fatalf("answers %v", answers)
	}
	if got := exactP(s, answers[1].Lin); math.Abs(got-0.75*0.5) > 1e-12 {
		t.Fatalf("y=7: conf %v, want %v", got, 0.75*0.5)
	}
}

func TestQueryEquiWithExtraPredicate(t *testing.T) {
	s := formula.NewSpace()
	r, u := tinyRelations(s)
	// The residual predicate sees the right side at offset len(R.Cols):
	// only c = 300 qualifies, joined with the two b = 20 rows of R.
	w := len(r.Cols)
	j := Select(EquiJoin(r, u, 1, 0), func(v []Value) bool { return v[w+1] > 200 })
	if lin, some := BooleanAnswer(j); !some || len(lin) != 2 {
		t.Fatalf("lineage %v (some=%v), want 2 clauses", lin, some)
	}
}

func TestQueryTriangleMatchesManualPipeline(t *testing.T) {
	// The Figure-5 triangle as three equi-joins plus the ordering
	// selection; TestFigure5Triangle states it as one equi-join and a
	// theta join.
	s := formula.NewSpace()
	e, vars := figure5(s)
	n1 := Rename(e, "n1", []string{"u", "v"})
	n2 := Rename(e, "n2", []string{"u", "v"})
	n3 := Rename(e, "n3", []string{"u", "v"})
	j := EquiJoin(EquiJoin(n1, n2, 1, 0), n3, 3, 1) // n1.v = n2.u, n2.v = n3.v
	j = Select(j, func(v []Value) bool {
		n1u, n2u, n3u, n3v := v[0], v[2], v[4], v[5]
		return n1u == n3u && n1u < n2u && n2u < n3v
	})
	lin, some := BooleanAnswer(j)
	want := formula.MustClause(formula.Pos(vars[2]), formula.Pos(vars[4]), formula.Pos(vars[5]))
	if !some || len(lin) != 1 || !lin[0].Equal(want) {
		t.Fatalf("lineage %s, want e3∧e5∧e6", lin.String(s))
	}
}

// exactP is P(d) by exact d-tree compilation.
func exactP(s *formula.Space, d formula.DNF) float64 {
	res, err := core.ExactCtx(context.Background(), s, d, core.Options{})
	if err != nil {
		panic(err)
	}
	return res.Estimate
}
