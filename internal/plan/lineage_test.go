package plan

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/formula"
	"repro/internal/pdb"
)

// TestLineageSinkMatchesStringKeyedGrouping: the lineage route's sink —
// groups found through sprout.KeyIndex, ordered by pdb.CompareValueKeys,
// their clauses staged flat and regrouped — returns what the eager
// reference's string-keyed pdb.GroupProject / BooleanAnswer return:
// the same groups in the same order and, clause for clause, the same
// DNFs. Group values are drawn where encoded-key order is not numeric
// order (negative, 2⁸ and above), and repeat so that groups interleave
// in arrival order and hold duplicate clauses.
func TestLineageSinkMatchesStringKeyedGrouping(t *testing.T) {
	domain := []pdb.Value{0, 1, 2, 255, 256, 257, -1, -256, 1 << 16, 1 << 40, -1 << 62}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := formula.NewSpace()
		rel := func(name string, tag int32) *pdb.Relation {
			rows := make([][]pdb.Value, 1+rng.Intn(40))
			probs := make([]float64, len(rows))
			for i := range rows {
				rows[i] = []pdb.Value{domain[rng.Intn(len(domain))], domain[rng.Intn(4)], domain[rng.Intn(len(domain))]}
				probs[i] = 0.1 + 0.8*rng.Float64()
			}
			return pdb.NewTupleIndependent(s, name, []string{"a", "b", "c"}, rows, probs, tag)
		}
		r, u := rel("R", 0), rel("U", 1)
		// R ⋈ U on b, then R again on U.b: the self-join makes different
		// tuple combinations merge to one clause.
		join := &EquiJoin{
			Left:    &EquiJoin{Left: scan(r), Right: scan(u), LeftCol: 1, RightCol: 1},
			Right:   scan(r),
			LeftCol: 4, RightCol: 1,
		}
		for _, project := range [][]int{nil, {0}, {5, 0}} { // (), (R.a), (U.c, R.a)
			root := &GroupLineage{Input: join, Cols: project}
			got, want := Lineage(root), evalIR(root)
			if len(got) != len(want) {
				t.Fatalf("seed %d, project %v: %d answers, eager reference %d", seed, project, len(got), len(want))
			}
			for i := range want {
				if pdb.CompareValueKeys(got[i].Vals, want[i].Vals) != 0 || (got[i].Vals == nil) != (want[i].Vals == nil) {
					t.Fatalf("seed %d, project %v: answer %d is %v, eager reference %v", seed, project, i, got[i].Vals, want[i].Vals)
				}
				if len(got[i].Lin) != len(want[i].Lin) {
					t.Fatalf("seed %d, project %v: answer %v has %d clauses, eager reference %d", seed, project, got[i].Vals, len(got[i].Lin), len(want[i].Lin))
				}
				for j := range want[i].Lin {
					if !got[i].Lin[j].Equal(want[i].Lin[j]) {
						t.Fatalf("seed %d, project %v: answer %v clause %d is %v, eager reference %v", seed, project, got[i].Vals, j, got[i].Lin[j], want[i].Lin[j])
					}
				}
			}
			// Answers share one clause array: appending to one must not
			// reach into the next.
			for i := range got {
				got[i].Lin = append(got[i].Lin, nil)
			}
			for i := range want {
				for j := range want[i].Lin {
					if !got[i].Lin[j].Equal(want[i].Lin[j]) {
						t.Fatalf("seed %d, project %v: appending to another answer's DNF overwrote answer %v clause %d", seed, project, got[i].Vals, j)
					}
				}
			}
		}
	}
}

// TestLineageHonoursCancel is TestStructuralRoutesHonourCancel for the
// lineage route: a client that goes away while a forced-lineage join is
// materializing stops it within one poll stride — on the driver side,
// where the sink polls, on the build side, where the join does, and on
// the probe side of a join that matches nothing, where the probe does —
// and the route reports the cancellation instead of a success.
func TestLineageHonoursCancel(t *testing.T) {
	const n = 300_000
	s := formula.NewSpace()
	rows := make([][]pdb.Value, n)
	probs := make([]float64, n)
	for i := range rows {
		rows[i] = []pdb.Value{pdb.Value(i % 3), pdb.Value(i)}
		probs[i] = 0.5
	}
	big := pdb.NewTupleIndependent(s, "Big", []string{"g", "v"}, rows, probs, 0)
	small := pdb.NewTupleIndependent(s, "Small", []string{"g"}, [][]pdb.Value{{0}, {1}, {2}}, []float64{0.5, 0.5, 0.5}, 1)
	absent := pdb.NewTupleIndependent(s, "Absent", []string{"g"}, [][]pdb.Value{{-1}}, []float64{0.5}, 2)

	for _, k := range []int{1, 100, cancelStride + 7, 200_000} {
		for _, side := range []string{"driver", "build", "theta build", "probe, no match", "theta probe, no match"} {
			ctx, cancel := context.WithCancel(context.Background())
			calls := 0
			filtered := sel(scan(big), func([]pdb.Value) bool {
				if calls++; calls == k {
					cancel()
				}
				return true
			})
			var join Node
			switch side {
			case "driver": // every Big tuple reaches the sink
				join = &EquiJoin{Left: filtered, Right: scan(small), LeftCol: 0, RightCol: 0}
			case "build":
				join = &EquiJoin{Left: scan(small), Right: filtered, LeftCol: 0, RightCol: 0}
			case "theta build":
				join = &ThetaJoin{Left: scan(small), Right: filtered, Less: &Less{LeftCol: 0, RightCol: 1}}
			case "probe, no match": // no Big tuple finds a partner, so none reaches the sink
				join = &EquiJoin{Left: filtered, Right: scan(absent), LeftCol: 0, RightCol: 0}
			default:
				join = &ThetaJoin{Left: filtered, Right: scan(absent), Less: &Less{LeftCol: 0, RightCol: 0}}
			}
			p := CompileWith(&GroupLineage{Input: join, Cols: []int{0}}, Options{DisableSafe: true, DisableIQ: true})
			if p.Route != RouteLineage {
				t.Fatalf("routed %s", p.Explain())
			}
			got, err := p.Answers(ctx, s, nil)
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s side, cancel at call %d: err = %v (%d answers), want context.Canceled", side, k, err, len(got))
			}
			if got != nil {
				t.Errorf("%s side, cancel at call %d: %d answers alongside the cancellation", side, k, len(got))
			}
			if calls > k+cancelStride {
				t.Errorf("%s side: %d predicate calls after a cancel at call %d, want at most %d more", side, calls, k, cancelStride)
			}
			cancel()
		}
	}
}

// TestLineageSinkAllocsPerGroupNotPerTuple is
// TestSafeRouteAllocsPerGroupNotPerTuple for the lineage route's sink:
// materializing a single-scan group query (6 groups) allocates the same
// small number of objects over 10 000 tuples as over 40 000 — the key
// index, the answers and their one clause array, not a key, a group
// lookup or a slice growth per tuple.
func TestLineageSinkAllocsPerGroupNotPerTuple(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	measure := func(n int) float64 {
		s := formula.NewSpace()
		rows := make([][]pdb.Value, n)
		probs := make([]float64, n)
		for i := range rows {
			rows[i] = []pdb.Value{pdb.Value(i % 3), pdb.Value(i % 2), pdb.Value(i % 100)}
			probs[i] = 0.001
		}
		rel := pdb.NewTupleIndependent(s, "lineitem", []string{"flag", "status", "date"}, rows, probs, 0)
		root := &GroupLineage{
			Input: sel(scan(rel), func(v []pdb.Value) bool { return v[2] <= 90 }),
			Cols:  []int{0, 1},
		}
		in := formula.NewInterner()
		ctx := context.Background()
		return testing.AllocsPerRun(10, func() {
			got, st, err := lineageWithStats(ctx, root, in)
			if err != nil || len(got) != 6 || st.tuples != int64(n/100*91) {
				t.Fatalf("%d answers over %d tuples, err %v", len(got), st.tuples, err)
			}
		})
	}
	small, large := measure(10_000), measure(40_000)
	t.Logf("allocations per lineage materialization: %v over 10 000 tuples, %v over 40 000", small, large)
	if small != large || small > 32 {
		t.Fatalf("allocations per lineage materialization: %v over 10 000 tuples, %v over 40 000; want equal and at most 32", small, large)
	}
}

// TestLineageJoinAllocsPerGroupNotPerTuple is the sink pin's twin for
// joins: a grouped driver ⋈ leaf ⋈ leaf query (6 groups) allocates the
// same small number of objects over 10 000 driver tuples as over
// 40 000. Each join writes its outputs into one arena and buffers its
// build side in pooled arrays, so nothing is allocated per output
// tuple; the interner is shared and warm, so every merge is a hit.
func TestLineageJoinAllocsPerGroupNotPerTuple(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	measure := func(n int) float64 {
		s := formula.NewSpace()
		rows := make([][]pdb.Value, n)
		probs := make([]float64, n)
		for i := range rows {
			rows[i] = []pdb.Value{pdb.Value(i % 3), pdb.Value(i % 2), pdb.Value(i % 100)}
			probs[i] = 0.001
		}
		driver := pdb.NewTupleIndependent(s, "lineitem", []string{"flag", "status", "part"}, rows, probs, 0)
		partRows := make([][]pdb.Value, 100)
		partProbs := make([]float64, len(partRows))
		for k := range partRows {
			partRows[k] = []pdb.Value{pdb.Value(k), pdb.Value(k % 10)}
			partProbs[k] = 0.5
		}
		part := pdb.NewTupleIndependent(s, "part", []string{"key", "supp"}, partRows, partProbs, 1)
		suppRows := make([][]pdb.Value, 10)
		suppProbs := make([]float64, len(suppRows))
		for k := range suppRows {
			suppRows[k] = []pdb.Value{pdb.Value(k), pdb.Value(k % 4)}
			suppProbs[k] = 0.5
		}
		supp := pdb.NewTupleIndependent(s, "supplier", []string{"key", "nation"}, suppRows, suppProbs, 2)
		root := &GroupLineage{
			Input: &EquiJoin{
				Left:    &EquiJoin{Left: scan(driver), Right: scan(part), LeftCol: 2, RightCol: 0},
				Right:   scan(supp),
				LeftCol: 4, RightCol: 0,
			},
			Cols: []int{0, 1},
		}
		in := formula.NewInterner()
		ctx := context.Background()
		return testing.AllocsPerRun(10, func() {
			got, st, err := lineageWithStats(ctx, root, in)
			if err != nil || len(got) != 6 || st.tuples != int64(n) {
				t.Fatalf("%d answers over %d tuples, err %v", len(got), st.tuples, err)
			}
		})
	}
	small, large := measure(10_000), measure(40_000)
	t.Logf("allocations per lineage materialization: %v over 10 000 driver tuples, %v over 40 000", small, large)
	if small != large || small > 48 {
		t.Fatalf("allocations per lineage materialization: %v over 10 000 driver tuples, %v over 40 000; want equal and at most 48", small, large)
	}
}

// TestLineagePooledScratchHoldsNoClauses: once a materialization has
// drained, the sink's and the joins' pooled scratch hold no clause and
// no tuple, so the pools keep neither a finished query's interner
// arenas nor its relations alive.
func TestLineagePooledScratchHoldsNoClauses(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	s := formula.NewSpace()
	r, u := tinyRelations(s)
	// A bushy join: the outer build side is itself a join, so its rows
	// are copied as well as referenced.
	root := &GroupLineage{
		Input: &EquiJoin{
			Left:    scan(r),
			Right:   &EquiJoin{Left: scan(u), Right: scan(r), LeftCol: 0, RightCol: 1},
			LeftCol: 1, RightCol: 0,
		},
		Cols: []int{0},
	}
	// A pool may hand back a fresh object (a GC ran, or the goroutine
	// moved to another P between Put and Get); retry until both used
	// ones come back.
	for attempt := 0; attempt < 100; attempt++ {
		if got, _, err := lineageWithStats(context.Background(), root, nil); err != nil || len(got) == 0 {
			t.Fatalf("%d answers, err %v", len(got), err)
		}
		sc := sinkPool.Get().(*sinkScratch)
		bs := buildPool.Get().(*buildSide)
		used := cap(sc.clauses) > 0 && cap(bs.rows) > 0
		if used {
			for i, c := range sc.clauses[:cap(sc.clauses)] {
				if c != nil {
					t.Errorf("pooled sink scratch holds clause %d: %v", i, c)
				}
			}
			for i, row := range bs.rows[:cap(bs.rows)] {
				if row.Vals != nil || row.Lin != nil {
					t.Errorf("pooled build side holds row %d: %v", i, row)
				}
			}
		}
		sinkPool.Put(sc)
		buildPool.Put(bs)
		if used {
			return
		}
	}
	t.Skip("the pools never handed back a used scratch")
}

// FuzzLineageMatchesEagerOracle decodes bytes into lineage-route trees
// (lineageDecoder): self-joins, BID inputs, projections, bushy joins
// whose build side is a join, opaque Selects above joins and
// projections, and join predicates reading arbitrary columns, which
// pruning must keep. The
// cursors must return evalIR's answers, in its order, with the same
// DNFs clause for clause. The seed corpus is under testdata/fuzz.
func FuzzLineageMatchesEagerOracle(f *testing.F) {
	rels := fuzzRelations(formula.NewSpace())
	f.Fuzz(func(t *testing.T, data []byte) {
		root := (&lineageDecoder{data: data, rels: rels}).root()
		if why := analyze(root).invalid; why != "" {
			t.Fatalf("decoded an invalid tree: %s", why)
		}
		got, want := Lineage(root), evalIR(root)
		if len(got) != len(want) {
			t.Fatalf("%d answers, eager reference %d", len(got), len(want))
		}
		for i := range want {
			if pdb.CompareValueKeys(got[i].Vals, want[i].Vals) != 0 || len(got[i].Vals) != len(want[i].Vals) {
				t.Fatalf("answer %d is %v, eager reference %v", i, got[i].Vals, want[i].Vals)
			}
			if len(got[i].Lin) != len(want[i].Lin) {
				t.Fatalf("answer %v has %d clauses, eager reference %d", got[i].Vals, len(got[i].Lin), len(want[i].Lin))
			}
			for j := range want[i].Lin {
				if !got[i].Lin[j].Equal(want[i].Lin[j]) {
					t.Fatalf("answer %v clause %d is %v, eager reference %v", got[i].Vals, j, got[i].Lin[j], want[i].Lin[j])
				}
			}
		}
	})
}

// fuzzRelations are the fuzz target's inputs, over a domain of four
// values so that joins match: R(a, b, c) and T(a, b) tuple-independent,
// S(a, b) block-independent-disjoint, whose alternatives of one block
// never join with each other.
func fuzzRelations(s *formula.Space) []*pdb.Relation {
	r := pdb.NewTupleIndependent(s, "R", []string{"a", "b", "c"},
		[][]pdb.Value{{0, 1, 2}, {1, 1, 3}, {2, 0, 0}, {3, 2, 1}, {1, 3, 1}},
		[]float64{0.3, 0.5, 0.7, 0.4, 0.6}, 0)
	bid := pdb.NewBID(s, "S", []string{"a", "b"}, [][]pdb.BIDAlternative{
		{{Vals: []pdb.Value{0, 1}, Prob: 0.3}, {Vals: []pdb.Value{1, 1}, Prob: 0.4}, {Vals: []pdb.Value{1, 2}, Prob: 0.2}},
		{{Vals: []pdb.Value{2, 3}, Prob: 0.5}, {Vals: []pdb.Value{3, 0}, Prob: 0.4}},
	}, 1)
	u := pdb.NewTupleIndependent(s, "T", []string{"a", "b"},
		[][]pdb.Value{{0, 3}, {1, 2}, {2, 2}, {3, 0}},
		[]float64{0.2, 0.8, 0.5, 0.9}, 2)
	return []*pdb.Relation{r, bid, u}
}

// lineageDecoder reads a valid lineage-route tree of at most
// maxFuzzLeaves scans, one kind byte per node (mod 5: Scan, Select,
// EquiJoin, ThetaJoin, Project), each node's bytes in this order:
//   - Scan: the relation.
//   - Select: its input, then column, value and operator bytes (v[c] ≠ k
//     or v[c] ≥ k); above a join it is opaque.
//   - EquiJoin: a byte splitting the leaf budget, left, right, the two
//     key columns, then an On byte; an odd one adds l[a] ≠ r[b] over the
//     next two column bytes.
//   - ThetaJoin: split, left, right, a flags byte — bit 0 a Less over
//     the next two column bytes, bit 1 a Pred l[a] ≤ r[b] over the two
//     after, neither meaning Less.
//   - Project: its input, a count byte (1–3 columns), the columns.
//
// The root is a GroupLineage over the tree: a count byte (0–2), then
// its columns. Every column byte is taken modulo its schema's width, and
// a join past the leaf budget decodes as a Scan; missing bytes read 0.
type lineageDecoder struct {
	data []byte
	rels []*pdb.Relation
}

const maxFuzzLeaves = 4

func (d *lineageDecoder) next() int {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return int(b)
}

func (d *lineageDecoder) col(n Node) int { return d.next() % Width(n) }

func (d *lineageDecoder) root() *GroupLineage {
	in := d.node(maxFuzzLeaves)
	cols := make([]int, d.next()%3)
	for i := range cols {
		cols[i] = d.col(in)
	}
	return &GroupLineage{Input: in, Cols: cols}
}

// node decodes a subtree of at most budget (≥ 1) scans.
func (d *lineageDecoder) node(budget int) Node {
	kind := d.next() % 5
	if budget < 2 && (kind == 2 || kind == 3) {
		kind = 0
	}
	switch kind {
	case 1:
		in := d.node(budget)
		c, k, ge := d.col(in), pdb.Value(d.next()%4), d.next()%2 == 1
		return &Select{Input: in, Pred: func(v []pdb.Value) bool {
			if ge {
				return v[c] >= k
			}
			return v[c] != k
		}}
	case 2, 3:
		lb := 1 + d.next()%(budget-1)
		l, r := d.node(lb), d.node(budget-lb)
		if kind == 2 {
			j := &EquiJoin{Left: l, Right: r, LeftCol: d.col(l), RightCol: d.col(r)}
			if d.next()%2 == 1 {
				a, b := d.col(l), d.col(r)
				j.On = func(lv, rv []pdb.Value) bool { return lv[a] != rv[b] }
			}
			return j
		}
		j := &ThetaJoin{Left: l, Right: r}
		flags := d.next()
		if flags&1 == 1 || flags&2 == 0 {
			j.Less = &Less{LeftCol: d.col(l), RightCol: d.col(r)}
		}
		if flags&2 == 2 {
			a, b := d.col(l), d.col(r)
			j.Pred = func(lv, rv []pdb.Value) bool { return lv[a] <= rv[b] }
		}
		return j
	case 4:
		in := d.node(budget)
		cols := make([]int, 1+d.next()%3)
		for i := range cols {
			cols[i] = d.col(in)
		}
		return &Project{Input: in, Cols: cols}
	}
	return &Scan{Rel: d.rels[d.next()%len(d.rels)]}
}
