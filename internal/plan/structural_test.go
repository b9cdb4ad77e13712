package plan

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/formula"
	"repro/internal/obs"
	"repro/internal/pdb"
)

// Tests of the structural routes' scan-speed kernels: bitwise
// differential against the string-keyed pipeline they replaced
// (oracle_test.go), the bitset independence scan and the lineage
// summaries against the map scan, cancellation and panic containment on
// the safe and IQ routes, the allocation pins, and the zero-answer edge.

// assertMatchesOracle runs a safe-routed plan and the oracle over the
// same analysis and requires identical rows, row order and
// math.Float64bits(P). It returns the number of answers.
func assertMatchesOracle(t *testing.T, label string, s *formula.Space, p *Plan, a *analysis) int {
	t.Helper()
	ref, reason := refCompileSafe(a)
	if ref == nil {
		t.Fatalf("%s: oracle refuses a plan the planner routed safe: %s", label, reason)
	}
	want := ref.answers(s)
	got, err := p.Answers(context.Background(), s, nil)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, oracle %d", label, len(got), len(want))
	}
	for i := range got {
		if !slices.Equal(got[i].Vals, want[i].vals) {
			t.Fatalf("%s: row %d is %v, oracle %v", label, i, got[i].Vals, want[i].vals)
		}
		if math.Float64bits(got[i].P) != math.Float64bits(want[i].p) {
			t.Fatalf("%s: row %d %v: P = %x (%v), oracle %x (%v)", label, i, got[i].Vals,
				math.Float64bits(got[i].P), got[i].P, math.Float64bits(want[i].p), want[i].p)
		}
		if r := got[i].Res; !r.Exact || !r.Converged || r.Lo != got[i].P || r.Hi != got[i].P || r.Estimate != got[i].P {
			t.Fatalf("%s: row %d: result %+v is not the exact answer %v", label, i, r, got[i].P)
		}
	}
	return len(got)
}

// forcedLineageCount is the number of answers forced lineage + exact
// d-tree compilation emits for root.
func forcedLineageCount(t *testing.T, s *formula.Space, root Node) int {
	t.Helper()
	p := CompileWith(root, Options{DisableSafe: true, DisableIQ: true})
	got, err := p.Answers(context.Background(), s, engine.Approx{})
	if err != nil {
		t.Fatal(err)
	}
	return len(got)
}

// byteOrderValues are attribute values whose key order (byte-reversed,
// unsigned) differs from numeric order: 256 < 65536 < 1 < 257 < 255 < -1.
var byteOrderValues = []pdb.Value{-1, 255, 256, 257, 65536}

// TestSafeRouteBitwiseMatchesOracleProperty drives prop_test.go's random
// TI + BID + deterministic corpora through the planner and, for every
// safe-routed plan, compares against the oracle bitwise — once on the
// corpus' own small values and once with them remapped to
// byteOrderValues — and against forced lineage on the answer count
// (which pins the zero-answer edge: a Boolean query with no qualifying
// tuple combination emits nothing on either route).
func TestSafeRouteBitwiseMatchesOracleProperty(t *testing.T) {
	for _, remap := range []bool{false, true} {
		rng := rand.New(rand.NewSource(20260728))
		safe, empty, multi := 0, 0, 0
		for iter := 0; iter < 600; iter++ {
			s := formula.NewSpace()
			rels := make([]*pdb.Relation, 3)
			for i := range rels {
				rels[i] = randomRelation(rng, s, fmt.Sprintf("R%d", i), int32(i))
				if remap {
					for _, tup := range rels[i].Tups {
						for c, v := range tup.Vals {
							tup.Vals[c] = byteOrderValues[v]
						}
					}
				}
			}
			root := randomQuery(rng, rels)
			if remap {
				// The corpus' selections compare against 0..4; keep them
				// selective on the remapped values.
				for _, f := range leafFilters(root) {
					cut := byteOrderValues[rng.Intn(len(byteOrderValues))]
					col := rng.Intn(len(f.Input.(*Scan).Rel.Cols))
					f.Pred = func(v []pdb.Value) bool { return v[col] <= cut }
				}
			}
			p := Compile(root)
			if p.Route != RouteSafe {
				continue
			}
			safe++
			label := fmt.Sprintf("remap=%v iter %d (%s)", remap, iter, p.Explain())
			n := assertMatchesOracle(t, label, s, p, analyze(groupOf(root)))
			if want := forcedLineageCount(t, s, root); n != want {
				t.Fatalf("%s: %d answers, forced lineage %d", label, n, want)
			}
			if n == 0 {
				empty++
			}
			if n > 1 {
				multi++
			}
		}
		t.Logf("remap=%v: %d safe-routed plans, %d with no answer, %d with several", remap, safe, empty, multi)
		if safe < 100 || empty == 0 || multi == 0 {
			t.Fatalf("remap=%v: corpus too thin: %d safe, %d empty, %d multi-row", remap, safe, empty, multi)
		}
	}
}

// leafFilters returns randomQuery's leaf selections in leaf order.
func leafFilters(n Node) []*Select {
	switch t := n.(type) {
	case *Select:
		return []*Select{t}
	case *EquiJoin:
		return append(leafFilters(t.Left), leafFilters(t.Right)...)
	case *ThetaJoin:
		return append(leafFilters(t.Left), leafFilters(t.Right)...)
	case *GroupLineage:
		return leafFilters(t.Input)
	}
	return nil
}

func scan(r *pdb.Relation) Node { return &Scan{Rel: r} }

func sel(n Node, pred func([]pdb.Value) bool) Node { return &Select{Input: n, Pred: pred} }

// tiRelation builds a tuple-independent relation with probabilities
// drawn from rng.
func tiRelation(rng *rand.Rand, s *formula.Space, name string, tag int32, cols []string, rows [][]pdb.Value) *pdb.Relation {
	probs := make([]float64, len(rows))
	for i := range probs {
		probs[i] = 0.05 + 0.9*rng.Float64()
	}
	return pdb.NewTupleIndependent(s, name, cols, rows, probs, tag)
}

// TestSafeRouteBitwiseMatchesOracleCases is the table of shapes the
// byte order and the kernel's structure make interesting.
func TestSafeRouteBitwiseMatchesOracleCases(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := formula.NewSpace()

	// Every pair of an odd value set: negatives, and values straddling
	// 2⁸ and 2¹⁶, where byte-reversed order is not numeric order.
	odd := []pdb.Value{-70000, -256, -1, 0, 1, 2, 254, 255, 256, 257, 511, 512, 65535, 65536, 65537, 1 << 40, math.MaxInt64, math.MinInt64}
	var oddRows [][]pdb.Value
	for _, a := range odd {
		for _, b := range odd {
			oddRows = append(oddRows, []pdb.Value{a, b, a ^ b}, []pdb.Value{a, b, 0})
		}
	}
	r := tiRelation(rng, s, "R", 0, []string{"a", "b", "c"}, oddRows)

	// 300 groups of 3: the kernel's table doubles from 16 slots past
	// 512, in the projection and in the join's index.
	var wideRows, keyRows [][]pdb.Value
	for g := 0; g < 300; g++ {
		k := pdb.Value(g*37 - 5000)
		keyRows = append(keyRows, []pdb.Value{k, pdb.Value(g % 7)})
		for j := 0; j < 3; j++ {
			wideRows = append(wideRows, []pdb.Value{k, pdb.Value(j)})
		}
	}
	wide := tiRelation(rng, s, "W", 1, []string{"k", "j"}, wideRows)
	keys := tiRelation(rng, s, "K", 2, []string{"k", "m"}, keyRows)

	// A deterministic relation (⊤ lineage, P = 1) beside uncertain ones.
	det := pdb.NewDeterministic("D", []string{"k", "d"}, [][]pdb.Value{{-5000, 1}, {-4963, 1}, {-4926, 2}, {99, 3}})

	// R1(a), R2(b), R3(a, b): with head {a, b} the three leaves are
	// three components; in leaf order R1, R2, R3 the plan is the cross
	// product R1 × R2 joined with R3 on both variables.
	r1 := tiRelation(rng, s, "R1", 3, []string{"a"}, [][]pdb.Value{{1}, {256}, {-1}, {7}})
	r2 := tiRelation(rng, s, "R2", 4, []string{"b"}, [][]pdb.Value{{255}, {2}, {65536}})
	r3 := tiRelation(rng, s, "R3", 5, []string{"a", "b"}, [][]pdb.Value{
		{1, 255}, {1, 255}, {256, 2}, {-1, 65536}, {-1, 2}, {7, 9}, {8, 255}, {256, 255},
	})
	// Leaf order R1, R2, R3: R1 ⋈ (R2 ⋈ R3).
	cross := &EquiJoin{
		Left: scan(r1), LeftCol: 0,
		Right:    &EquiJoin{Left: scan(r2), Right: scan(r3), LeftCol: 0, RightCol: 1},
		RightCol: 1, // R3.a in (R2 ⋈ R3)'s schema b, a, b
	}

	cases := []struct {
		name string
		root Node
		rows int // expected answers; -1 = only compare
	}{
		{"odd values, one column", &GroupLineage{Input: scan(r), Cols: []int{0}}, len(odd)},
		{"odd values, two columns", &GroupLineage{Input: scan(r), Cols: []int{0, 1}}, len(odd) * len(odd)},
		{"head out of column order", &GroupLineage{Input: scan(r), Cols: []int{2, 0}}, -1},
		{"head with a repeated column", &GroupLineage{Input: scan(r), Cols: []int{1, 0, 1}}, len(odd) * len(odd)},
		{"filtered leaf", &GroupLineage{Input: sel(sel(scan(r), func(v []pdb.Value) bool { return v[2] == 0 }),
			func(v []pdb.Value) bool { return v[0] < 300 }), Cols: []int{1, 0}}, -1},
		{"Boolean head", &GroupLineage{Input: scan(r)}, 1},
		{"Boolean head via bare scan", scan(r), 1},
		{"empty selection, grouped", &GroupLineage{Input: sel(scan(r), func([]pdb.Value) bool { return false }), Cols: []int{0}}, 0},
		{"empty selection, Boolean", &GroupLineage{Input: sel(scan(r), func([]pdb.Value) bool { return false })}, 0},
		{"growth, projection", &GroupLineage{Input: scan(wide), Cols: []int{0}}, 300},
		{"growth, join then Boolean", &GroupLineage{Input: &EquiJoin{Left: scan(keys), Right: scan(wide), LeftCol: 0, RightCol: 0}}, 1},
		{"growth, join grouped by key", &GroupLineage{Input: &EquiJoin{Left: scan(keys), Right: scan(wide), LeftCol: 0, RightCol: 0}, Cols: []int{0}}, 300},
		{"growth, join grouped off the key", &GroupLineage{Input: &EquiJoin{Left: scan(keys), Right: scan(wide), LeftCol: 0, RightCol: 0}, Cols: []int{1}}, -1},
		{"join with no match", &GroupLineage{Input: &EquiJoin{Left: scan(r1), Right: scan(wide), LeftCol: 0, RightCol: 0}}, 0},
		{"deterministic leaf", &GroupLineage{Input: scan(det), Cols: []int{1}}, 3},
		{"deterministic join", &GroupLineage{Input: &EquiJoin{Left: scan(det), Right: scan(wide), LeftCol: 0, RightCol: 0}, Cols: []int{1}}, 2},
		{"cross product, two shared variables", &GroupLineage{Input: cross, Cols: []int{0, 1}}, 5},
		{"cross product, head reversed", &GroupLineage{Input: cross, Cols: []int{1, 0}}, 5},
	}
	for _, c := range cases {
		p := Compile(c.root)
		if p.Route != RouteSafe {
			t.Fatalf("%s: routed %s", c.name, p.Explain())
		}
		n := assertMatchesOracle(t, c.name, s, p, analyze(groupOf(c.root)))
		if c.rows >= 0 && n != c.rows {
			t.Fatalf("%s: %d answers, want %d", c.name, n, c.rows)
		}
		if want := forcedLineageCount(t, s, c.root); n != want {
			t.Fatalf("%s: %d answers, forced lineage %d", c.name, n, want)
		}
	}
}

// TestSafeRouteIntraLeafEqualityMatchesOracle covers the leaf scan's
// equality groups. No IR shape reaches them — every join edge links two
// different subtrees, so two columns of one leaf never share a class —
// which is why the analysis is written by hand here.
func TestSafeRouteIntraLeafEqualityMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := formula.NewSpace()
	var rows [][]pdb.Value
	for i := 0; i < 200; i++ {
		rows = append(rows, []pdb.Value{pdb.Value(rng.Intn(4) * 128), pdb.Value(rng.Intn(4) * 128), pdb.Value(rng.Intn(4) * 128), pdb.Value(rng.Intn(3))})
	}
	r := tiRelation(rng, s, "R", 0, []string{"a", "b", "c", "d"}, rows)
	u := tiRelation(rng, s, "U", 1, []string{"a"}, [][]pdb.Value{{0}, {128}, {384}})
	for _, a := range []*analysis{
		{ // q(a) :- R(a, a, _, _)
			leaves: []leafInfo{{rel: r}},
			eqs:    []eqEdge{{origin{0, 0}, origin{0, 1}}},
			head:   []origin{{0, 1}},
		},
		{ // q(d) :- R(a, a, a, d), d ≥ 1
			leaves: []leafInfo{{rel: r, filters: []func([]pdb.Value) bool{func(v []pdb.Value) bool { return v[3] >= 1 }}}},
			eqs:    []eqEdge{{origin{0, 0}, origin{0, 1}}, {origin{0, 1}, origin{0, 2}}},
			head:   []origin{{0, 3}},
		},
		{ // q() :- R(a, a, _, _), U(a)
			leaves: []leafInfo{{rel: r}, {rel: u}},
			eqs:    []eqEdge{{origin{0, 0}, origin{0, 1}}, {origin{0, 1}, origin{1, 0}}},
		},
	} {
		sp, reason := compileSafe(a)
		if sp == nil {
			t.Fatalf("not safe: %s", reason)
		}
		p := &Plan{Root: scan(r), Route: RouteSafe, safe: sp}
		if n := assertMatchesOracle(t, sp.desc, s, p, a); n == 0 {
			t.Fatalf("%s: no answers — the equality groups selected nothing", sp.desc)
		}
	}
}

// TestEventIndependentMatchesMapOracle compares the bitset scan with
// the map scan it replaced.
func TestEventIndependentMatchesMapOracle(t *testing.T) {
	s := formula.NewSpace()
	ti, ti2 := tinyRelations(s)
	blocks := [][]pdb.BIDAlternative{
		{{Vals: []pdb.Value{1, 0}, Prob: 0.3}, {Vals: []pdb.Value{1, 1}, Prob: 0.4}},
		{{Vals: []pdb.Value{2, 0}, Prob: 0.5}, {Vals: []pdb.Value{2, 1}, Prob: 0.2}},
		{{Vals: []pdb.Value{3, 2}, Prob: 0.6}},
	}
	bid := pdb.NewBID(s, "B", []string{"k", "alt"}, blocks, 2)
	altBelow := func(n pdb.Value) []func([]pdb.Value) bool {
		return []func([]pdb.Value) bool{func(v []pdb.Value) bool { return v[1] < n }}
	}
	// A relation sharing a variable with ti, and one far up the id space.
	shared := &pdb.Relation{Name: "S", Cols: []string{"a"}, Tups: []pdb.Tuple{{Vals: []pdb.Value{9}, Lin: ti.Tups[1].Lin}}}
	for s.NumVars() < 1<<16 {
		s.AddBool(0.5)
	}
	high := s.AddBool(0.5)
	sparse := &pdb.Relation{Name: "H", Cols: []string{"a"}, Tups: []pdb.Tuple{
		{Vals: []pdb.Value{1}, Lin: formula.MustClause(formula.Pos(high))},
		{Vals: []pdb.Value{2}, Lin: formula.MustClause(formula.Pos(formula.Var(40)), formula.Pos(high-64))},
	}}
	sparseDup := &pdb.Relation{Name: "H2", Cols: []string{"a"}, Tups: []pdb.Tuple{{Vals: []pdb.Value{3}, Lin: formula.MustClause(formula.Neg(high))}}}
	det := pdb.NewDeterministic("D", []string{"a"}, [][]pdb.Value{{1}, {2}})

	cases := []struct {
		name   string
		leaves []leafInfo
		want   bool
	}{
		{"no leaves", nil, true},
		{"tuple-independent", []leafInfo{{rel: ti}, {rel: ti2}}, true},
		{"deterministic", []leafInfo{{rel: det}, {rel: ti}}, true},
		{"BID, no alternative survives", []leafInfo{{rel: bid, filters: altBelow(0)}}, true},
		{"BID, one alternative per block survives", []leafInfo{{rel: bid, filters: altBelow(1)}}, true},
		{"BID, two alternatives of a block survive", []leafInfo{{rel: bid, filters: altBelow(2)}}, false},
		{"BID, unfiltered", []leafInfo{{rel: ti}, {rel: bid}}, false},
		{"variable shared across two relations", []leafInfo{{rel: ti}, {rel: shared}}, false},
		{"shared variable filtered out", []leafInfo{{rel: ti, filters: []func([]pdb.Value) bool{func(v []pdb.Value) bool { return v[0] != 2 }}}, {rel: shared}}, true},
		{"sparse high ids", []leafInfo{{rel: sparse}, {rel: ti}}, true},
		{"sparse high ids, repeated", []leafInfo{{rel: sparse}, {rel: ti}, {rel: sparseDup}}, false},
	}
	for _, c := range cases {
		if got, ref := eventIndependent(c.leaves), refEventIndependent(c.leaves); got != ref || got != c.want {
			t.Errorf("%s: bitset scan %v, map scan %v, want %v", c.name, got, ref, c.want)
		}
		if summaryIndependent(c.leaves) && !c.want {
			t.Errorf("%s: the lineage summaries vouch for correlated leaves", c.name)
		}
	}
}

// FuzzIndependenceSummaryAgreesWithScan decodes bytes into relations —
// tuple-independent, BID with one to three alternatives per block,
// deterministic, and hand-built ones whose variables may repeat within
// the relation or come from an earlier one — and leaves over them,
// each with a random filter; a relation picked twice is a self-join.
// Whenever the summaries say independent, the map scan must agree, and
// eventIndependent must always equal it. The seed corpus is under
// testdata/fuzz.
func FuzzIndependenceSummaryAgreesWithScan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		leaves := decodeIndependenceLeaves(&lineageDecoder{data: data})
		ref := refEventIndependent(leaves)
		if summaryIndependent(leaves) && !ref {
			t.Fatal("the lineage summaries vouch for leaves the map scan finds correlated")
		}
		if got := eventIndependent(leaves); got != ref {
			t.Fatalf("eventIndependent %v, map scan %v", got, ref)
		}
	})
}

// decodeIndependenceLeaves reads, from d's bytes: a relation count
// (1–3); per relation a size byte (1–5 tuples or blocks) and a kind
// byte (mod 4: tuple-independent, BID, hand-built, deterministic), then
// per tuple a value byte — a BID block first reads its alternative
// count (1–3), a hand-built tuple a variable byte picking any variable
// already in the space or, past them, a fresh one; then a leaf count
// (1–4) and per leaf a relation byte and a filter byte (mod 3: none,
// v[0] ≠ k, v[0] ≥ k) with its value byte k. Values lie in 0..3;
// missing bytes read 0.
func decodeIndependenceLeaves(d *lineageDecoder) []leafInfo {
	s := formula.NewSpace()
	rels := make([]*pdb.Relation, 1+d.next()%3)
	for i := range rels {
		name, cols := fmt.Sprintf("R%d", i), []string{"a", "i"}
		n := 1 + d.next()%5
		val := func(j int) []pdb.Value { return []pdb.Value{pdb.Value(d.next() % 4), pdb.Value(j)} }
		switch d.next() % 4 {
		case 0:
			rows, probs := make([][]pdb.Value, n), make([]float64, n)
			for j := range rows {
				rows[j], probs[j] = val(j), 0.5
			}
			rels[i] = pdb.NewTupleIndependent(s, name, cols, rows, probs, int32(i))
		case 1:
			blocks := make([][]pdb.BIDAlternative, n)
			for j := range blocks {
				blocks[j] = make([]pdb.BIDAlternative, 1+d.next()%3)
				for k := range blocks[j] {
					blocks[j][k] = pdb.BIDAlternative{Vals: val(j), Prob: 0.25}
				}
			}
			rels[i] = pdb.NewBID(s, name, cols, blocks, int32(i))
		case 2:
			rels[i] = &pdb.Relation{Name: name, Cols: cols}
			for j := 0; j < n; j++ {
				vals := val(j)
				v := formula.Var(d.next() % (s.NumVars() + 1))
				if int(v) == s.NumVars() {
					v = s.AddBool(0.5)
				}
				rels[i].Tups = append(rels[i].Tups, pdb.Tuple{Vals: vals, Lin: formula.MustClause(formula.Pos(v))})
			}
		default:
			rows := make([][]pdb.Value, n)
			for j := range rows {
				rows[j] = val(j)
			}
			rels[i] = pdb.NewDeterministic(name, cols, rows)
		}
	}
	leaves := make([]leafInfo, 1+d.next()%4)
	for i := range leaves {
		leaves[i].rel = rels[d.next()%len(rels)]
		kind, k := d.next()%3, pdb.Value(d.next()%4)
		switch kind {
		case 1:
			leaves[i].filters = []func([]pdb.Value) bool{func(v []pdb.Value) bool { return v[0] != k }}
		case 2:
			leaves[i].filters = []func([]pdb.Value) bool{func(v []pdb.Value) bool { return v[0] >= k }}
		}
	}
	return leaves
}

// TestStructuralRoutesHonourCancel: a client that goes away mid-scan
// stops a safe plan and an IQ chain within one poll stride, and the
// route reports the cancellation instead of a success.
func TestStructuralRoutesHonourCancel(t *testing.T) {
	const n = 3*cancelStride + 500
	s := formula.NewSpace()
	rows := make([][]pdb.Value, n)
	probs := make([]float64, n)
	for i := range rows {
		rows[i] = []pdb.Value{pdb.Value(i % 3), pdb.Value(i)}
		probs[i] = 0.5
	}
	big := pdb.NewTupleIndependent(s, "Big", []string{"g", "v"}, rows, probs, 0)
	small := pdb.NewTupleIndependent(s, "Small", []string{"v"}, [][]pdb.Value{{-1}, {5}}, []float64{0.5, 0.5}, 1)

	for _, k := range []int{1, 100, cancelStride + 7} {
		for _, route := range []Route{RouteSafe, RouteIQ} {
			ctx, cancel := context.WithCancel(context.Background())
			armed, calls := false, 0
			filtered := sel(scan(big), func([]pdb.Value) bool {
				if armed {
					if calls++; calls == k {
						cancel()
					}
				}
				return true
			})
			var root Node = &GroupLineage{Input: filtered, Cols: []int{0}}
			if route == RouteIQ {
				root = &GroupLineage{Input: &ThetaJoin{Left: scan(small), Right: filtered, Less: &Less{LeftCol: 0, RightCol: 1}}}
			}
			// The independence scan runs the predicate too: arm after it.
			p := Compile(root)
			if p.Route != route {
				t.Fatalf("routed %s, want %v", p.Explain(), route)
			}
			armed = true
			got, err := p.Answers(ctx, s, nil)
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%v, cancel at call %d: err = %v (%d answers), want context.Canceled", route, k, err, len(got))
			}
			if got != nil {
				t.Errorf("%v, cancel at call %d: %d answers alongside the cancellation", route, k, len(got))
			}
			if calls > k+cancelStride {
				t.Errorf("%v: %d predicate calls after a cancel at call %d, want at most %d more", route, calls, k, cancelStride)
			}
			cancel()
		}
	}
}

// TestPlannerStructuralPanicContained is TestPlannerLineagePanicContained
// with the structural routes enabled: a predicate that panics during
// the compile-time independence scan must not unwind CompileWith, and
// one that first panics at evaluation time must fail that query alone —
// on the safe route and on the IQ route — with a *fault.PanicError,
// counted once.
func TestPlannerStructuralPanicContained(t *testing.T) {
	s := formula.NewSpace()
	r, u := tinyRelations(s)
	m := obs.NewMetrics()
	opt := Options{Metrics: m}
	ctx := context.Background()
	wantPanics := int64(0)
	check := func(label string, p *Plan, site string) {
		t.Helper()
		got, err := p.Answers(ctx, s, nil)
		var pe *fault.PanicError
		if !errors.As(err, &pe) || pe.Site != site {
			t.Fatalf("%s: err = %v, want a *fault.PanicError from %s", label, err, site)
		}
		if got != nil {
			t.Fatalf("%s: answers %v alongside a contained panic", label, got)
		}
		wantPanics++
		if n := m.Snapshot().PanicsRecovered; n != wantPanics {
			t.Fatalf("%s: PanicsRecovered = %d, want %d", label, n, wantPanics)
		}
	}

	// Panics on every call over a relation the lineage summary cannot
	// vouch for (a BID block with two alternatives): the independence
	// scan runs the filter and meets the panic first.
	bid := pdb.NewBID(s, "B", []string{"k", "alt"}, [][]pdb.BIDAlternative{
		{{Vals: []pdb.Value{1, 0}, Prob: 0.3}, {Vals: []pdb.Value{1, 1}, Prob: 0.4}},
	}, 2)
	always := func([]pdb.Value) bool { panic("bad predicate") }
	scanned := CompileWith(&GroupLineage{Input: &Select{Input: &Scan{Rel: bid}, Pred: always}, Cols: []int{1}}, opt)
	if scanned.Route != RouteLineage {
		t.Fatalf("panicking independence scan routed %s", scanned.Explain())
	}
	if n := m.Snapshot().PanicsRecovered; n != 0 {
		t.Fatalf("PanicsRecovered = %d after compile, want 0: the failure is counted where it surfaces", n)
	}
	check("panic at compile", scanned, "plan.lineage")

	// The same filter over a tuple-independent relation: the summary
	// answers independence without calling it, so the plan routes safe
	// and the panic is contained where the safe plan first runs it.
	summarized := CompileWith(&GroupLineage{Input: &Select{Input: &Scan{Rel: r}, Pred: always}, Cols: []int{1}}, opt)
	if summarized.Route != RouteSafe {
		t.Fatalf("summary-independent leaf routed %s", summarized.Explain())
	}
	check("panic after a summary-only compile", summarized, "plan.safe")

	// Healthy during compile, panics at evaluation.
	for _, route := range []Route{RouteSafe, RouteIQ} {
		armed := false
		filtered := &Select{Input: &Scan{Rel: r}, Pred: func([]pdb.Value) bool {
			if armed {
				panic("bad predicate")
			}
			return true
		}}
		var root Node = &GroupLineage{Input: filtered, Cols: []int{1}}
		site := "plan.safe"
		if route == RouteIQ {
			root = &GroupLineage{Input: &ThetaJoin{Left: filtered, Right: &Scan{Rel: u}, Less: &Less{LeftCol: 0, RightCol: 1}}}
			site = "plan.iq"
		}
		p := CompileWith(root, opt)
		if p.Route != route {
			t.Fatalf("routed %s, want %v", p.Explain(), route)
		}
		armed = true
		check("panic at evaluation", p, site)
	}

	good := CompileWith(&GroupLineage{Input: &Scan{Rel: r}, Cols: []int{1}}, opt)
	if got, err := good.Answers(ctx, s, nil); err != nil || len(got) != 2 || good.Route != RouteSafe {
		t.Fatalf("healthy query after the panics: %s, %d answers, err %v", good.Explain(), len(got), err)
	}
	if n := m.Snapshot().PanicsRecovered; n != wantPanics {
		t.Fatalf("PanicsRecovered = %d after a healthy query, want %d", n, wantPanics)
	}
}

// TestSafeRouteAllocsPerGroupNotPerTuple is the machine-independent form
// of the structural routes' cost claim: answering a Q1-shaped safe plan
// (one filtered leaf, 6 groups) allocates the same small number of
// objects over 10 000 tuples as over 40 000.
func TestSafeRouteAllocsPerGroupNotPerTuple(t *testing.T) {
	measure := func(n int) float64 {
		s := formula.NewSpace()
		rows := make([][]pdb.Value, n)
		probs := make([]float64, n)
		for i := range rows {
			rows[i] = []pdb.Value{pdb.Value(i % 3), pdb.Value(i % 2), pdb.Value(i % 100)}
			probs[i] = 0.001
		}
		rel := pdb.NewTupleIndependent(s, "lineitem", []string{"flag", "status", "date"}, rows, probs, 0)
		p := Compile(&GroupLineage{
			Input: sel(scan(rel), func(v []pdb.Value) bool { return v[2] <= 90 }),
			Cols:  []int{0, 1},
		})
		if p.Route != RouteSafe {
			t.Fatalf("routed %s", p.Explain())
		}
		ctx := context.Background()
		return testing.AllocsPerRun(10, func() {
			got, err := p.Answers(ctx, s, nil)
			if err != nil || len(got) != 6 {
				t.Fatalf("%d answers, err %v", len(got), err)
			}
		})
	}
	small, large := measure(10_000), measure(40_000)
	t.Logf("allocations per Answers: %v over 10 000 tuples, %v over 40 000", small, large)
	if small != large || small > 64 {
		t.Fatalf("allocations per Answers: %v over 10 000 tuples, %v over 40 000; want equal and at most 64", small, large)
	}
}

// TestCompileAllocsIndependentOfDriverSize pins the independence check's
// cost: compiling a tuple-independent three-way join (a star on partkey,
// routed safe) allocates the same number of objects over 10 000 driver
// tuples as over 40 000, and never calls the driver's filter — the
// relations' lineage summaries answer independence without a tuple scan.
// Only the filter count is checked under -race.
func TestCompileAllocsIndependentOfDriverSize(t *testing.T) {
	measure := func(n int) float64 {
		s := formula.NewSpace()
		rows := make([][]pdb.Value, n)
		probs := make([]float64, n)
		for i := range rows {
			rows[i] = []pdb.Value{pdb.Value(i % 50), pdb.Value(i % 7), pdb.Value(i % 100)}
			probs[i] = 0.001
		}
		li := pdb.NewTupleIndependent(s, "lineitem", []string{"partkey", "suppkey", "qty"}, rows, probs, 0)
		part := pdb.NewTupleIndependent(s, "part", []string{"partkey", "brand"},
			[][]pdb.Value{{1, 10}, {2, 20}, {3, 10}}, []float64{0.5, 0.6, 0.7}, 1)
		ps := pdb.NewTupleIndependent(s, "partsupp", []string{"partkey"},
			[][]pdb.Value{{1}, {2}}, []float64{0.4, 0.8}, 2)
		calls := 0
		root := &GroupLineage{
			Input: &EquiJoin{
				Left: &EquiJoin{
					Left:    sel(scan(li), func(v []pdb.Value) bool { calls++; return v[2] < 30 }),
					Right:   scan(part),
					LeftCol: 0, RightCol: 0,
				},
				Right:   scan(ps),
				LeftCol: 0, RightCol: 0,
			},
			Cols: []int{4},
		}
		if p := Compile(root); p.Route != RouteSafe {
			t.Fatalf("routed %s", p.Explain())
		}
		allocs := testing.AllocsPerRun(10, func() { Compile(root) })
		if calls != 0 {
			t.Fatalf("compile over %d driver tuples called the leaf filter %d times", n, calls)
		}
		return allocs
	}
	small, large := measure(10_000), measure(40_000)
	t.Logf("allocations per Compile: %v over 10 000 driver tuples, %v over 40 000", small, large)
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	if small != large {
		t.Fatalf("allocations per Compile: %v over 10 000 driver tuples, %v over 40 000; want equal", small, large)
	}
}

// TestBooleanNoQualifyingCombinationEmitsNoAnswer pins the edge ROADMAP
// item 5 names: when no combination of tuples qualifies, a Boolean query
// has no answer — not a P = 0 one — on the safe route, on the IQ route
// and on forced lineage + exact engine.Approx alike.
func TestBooleanNoQualifyingCombinationEmitsNoAnswer(t *testing.T) {
	s := formula.NewSpace()
	r, u := tinyRelations(s) // R(a, b) with a ∈ 1..3, b ∈ {10, 20}; T(b, c) with c ∈ 100..300
	none := func([]pdb.Value) bool { return false }
	far := pdb.NewTupleIndependent(s, "Far", []string{"b"}, [][]pdb.Value{{77}, {78}}, []float64{0.5, 0.5}, 2)
	cases := []struct {
		name    string
		root    Node
		route   Route
		answers int
	}{
		{"safe: empty selection", &GroupLineage{Input: sel(scan(r), none)}, RouteSafe, 0},
		{"safe: join with no match", &GroupLineage{Input: &EquiJoin{Left: scan(r), Right: scan(far), LeftCol: 1, RightCol: 0}}, RouteSafe, 0},
		{"safe: join with one side filtered out", &GroupLineage{Input: &EquiJoin{Left: scan(r), Right: sel(scan(u), none), LeftCol: 1, RightCol: 0}}, RouteSafe, 0},
		{"safe: join with a match", &GroupLineage{Input: &EquiJoin{Left: scan(r), Right: scan(u), LeftCol: 1, RightCol: 0}}, RouteSafe, 1},
		{"iq: chain with no increasing pick", &GroupLineage{Input: &ThetaJoin{Left: scan(u), Right: scan(r), Less: &Less{LeftCol: 1, RightCol: 0}}}, RouteIQ, 0},
		{"iq: chain with an empty level", &GroupLineage{Input: &ThetaJoin{Left: scan(r), Right: sel(scan(u), none), Less: &Less{LeftCol: 0, RightCol: 1}}}, RouteIQ, 0},
		{"iq: star with one group out of reach", &GroupLineage{Input: &ThetaJoin{
			Left:  &ThetaJoin{Left: scan(far), Right: scan(u), Less: &Less{LeftCol: 0, RightCol: 1}},
			Right: scan(r), Less: &Less{LeftCol: 0, RightCol: 1},
		}}, RouteIQ, 0},
		{"iq: chain with an increasing pick", &GroupLineage{Input: &ThetaJoin{Left: scan(r), Right: scan(u), Less: &Less{LeftCol: 0, RightCol: 1}}}, RouteIQ, 1},
	}
	for _, c := range cases {
		p := Compile(c.root)
		if p.Route != c.route {
			t.Fatalf("%s: routed %s", c.name, p.Explain())
		}
		got, err := p.Answers(context.Background(), s, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if lin := forcedLineageCount(t, s, c.root); len(got) != c.answers || lin != c.answers {
			t.Errorf("%s: %d answers on the %v route, %d on forced lineage, want %d on both", c.name, len(got), c.route, lin, c.answers)
		}
	}
}
