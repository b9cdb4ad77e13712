package plan

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/formula"
	"repro/internal/pdb"
)

// Planner equivalence property. For random acyclic conjunctive queries
// over random tuple-independent and BID relations, the planner-routed
// confidences must equal the eager reference evaluator (evalIR, over
// pdb's algebra operators) plus exact engine.Approx, within 1e-12 — whatever
// route the planner picks.

// randomRelation builds a small relation: tuple-independent,
// block-independent-disjoint, or deterministic.
func randomRelation(rng *rand.Rand, s *formula.Space, name string, tag int32) *pdb.Relation {
	ncols := 1 + rng.Intn(3)
	cols := make([]string, ncols)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i)
	}
	rows := 2 + rng.Intn(6)
	mkRow := func() []pdb.Value {
		row := make([]pdb.Value, ncols)
		for i := range row {
			row[i] = pdb.Value(rng.Intn(5))
		}
		return row
	}
	switch rng.Intn(4) {
	case 0: // BID
		nblocks := 1 + rng.Intn(3)
		blocks := make([][]pdb.BIDAlternative, nblocks)
		for b := range blocks {
			nalt := 1 + rng.Intn(3)
			rest := 1.0
			for a := 0; a < nalt; a++ {
				p := rest * (0.2 + 0.5*rng.Float64())
				rest -= p
				blocks[b] = append(blocks[b], pdb.BIDAlternative{Vals: mkRow(), Prob: p})
			}
		}
		return pdb.NewBID(s, name, cols, blocks, tag)
	case 1: // deterministic
		vals := make([][]pdb.Value, rows)
		for i := range vals {
			vals[i] = mkRow()
		}
		return pdb.NewDeterministic(name, cols, vals)
	default: // tuple-independent
		vals := make([][]pdb.Value, rows)
		probs := make([]float64, rows)
		for i := range vals {
			vals[i] = mkRow()
			probs[i] = 0.1 + 0.8*rng.Float64()
		}
		return pdb.NewTupleIndependent(s, name, cols, vals, probs, tag)
	}
}

// randomQuery builds a random left-deep acyclic query over 1–3 leaves
// (occasionally repeating a relation, which must push the planner onto
// the lineage route): each leaf optionally filtered, each later leaf
// joined against the accumulated left side — an equality with a column
// of one earlier leaf or, one time in five, an opaque inequality — and
// a Boolean or 1–2 column grouped head.
func randomQuery(rng *rand.Rand, rels []*pdb.Relation) *GroupLineage {
	n := 1 + rng.Intn(3)
	perm := rng.Perm(len(rels))
	var acc Node
	leafRels := make([]*pdb.Relation, 0, n)
	offsets := make([]int, 0, n) // each leaf's first column in acc's schema
	width := 0
	for i := 0; i < n; i++ {
		rel := rels[perm[i%len(perm)]]
		if rng.Intn(8) == 0 {
			rel = rels[perm[0]] // occasional self-join
		}
		leaf := scan(rel)
		if rng.Intn(3) == 0 {
			col := rng.Intn(len(rel.Cols))
			cut := pdb.Value(rng.Intn(5))
			leaf = sel(leaf, func(v []pdb.Value) bool { return v[col] <= cut })
		}
		switch {
		case i == 0:
			acc = leaf
		case rng.Intn(5) == 0: // opaque theta join
			lcol := rng.Intn(width)
			rcol := rng.Intn(len(rel.Cols))
			acc = &ThetaJoin{Left: acc, Right: leaf, Pred: func(l, r []pdb.Value) bool { return l[lcol] < r[rcol] }}
		default:
			li := rng.Intn(i)
			lcol := offsets[li] + rng.Intn(len(leafRels[li].Cols))
			acc = &EquiJoin{Left: acc, Right: leaf, LeftCol: lcol, RightCol: rng.Intn(len(rel.Cols))}
		}
		leafRels, offsets = append(leafRels, rel), append(offsets, width)
		width += len(rel.Cols)
	}
	g := &GroupLineage{Input: acc}
	if rng.Intn(2) == 0 { // grouped projection over 1–2 columns
		np := 1 + rng.Intn(2)
		for i := 0; i < np; i++ {
			it := rng.Intn(n)
			g.Cols = append(g.Cols, offsets[it]+rng.Intn(len(leafRels[it].Cols)))
		}
	}
	return g
}

func key(vals []pdb.Value) string {
	var b strings.Builder
	for _, v := range vals {
		fmt.Fprintf(&b, "%d|", v)
	}
	return b.String()
}

func TestPlannerEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260728))
	routes := map[Route]int{}
	const iterations = 400
	for iter := 0; iter < iterations; iter++ {
		s := formula.NewSpace()
		rels := make([]*pdb.Relation, 3)
		for i := range rels {
			rels[i] = randomRelation(rng, s, fmt.Sprintf("R%d", i), int32(i))
		}
		root := randomQuery(rng, rels)

		ref := evalIR(root)
		want := map[string]float64{}
		for _, a := range ref {
			res, err := engine.Approx{}.Evaluate(context.Background(), s, a.Lin)
			if err != nil {
				t.Fatal(err)
			}
			want[key(a.Vals)] = res.Estimate
		}

		p := Compile(root)
		routes[p.Route]++
		got, err := p.Answers(context.Background(), s, engine.Approx{})
		if err != nil {
			t.Fatalf("iter %d (%s): %v", iter, p.Explain(), err)
		}
		if len(got) != len(ref) {
			t.Fatalf("iter %d (%s): %d answers, eager reference %d", iter, p.Explain(), len(got), len(ref))
		}
		for _, a := range got {
			wp, ok := want[key(a.Vals)]
			if !ok {
				t.Fatalf("iter %d (%s): unexpected answer %v", iter, p.Explain(), a.Vals)
			}
			if math.Abs(a.P-wp) > 1e-12 {
				t.Fatalf("iter %d (%s): answer %v confidence %v, eager reference %v (Δ=%g)",
					iter, p.Explain(), a.Vals, a.P, wp, math.Abs(a.P-wp))
			}
		}
	}
	t.Logf("routes over %d random queries: safe=%d iq=%d lineage=%d",
		iterations, routes[RouteSafe], routes[RouteIQ], routes[RouteLineage])
	if routes[RouteSafe] == 0 || routes[RouteLineage] == 0 {
		t.Fatalf("property corpus did not exercise both safe and lineage routes: %v", routes)
	}
}

// TestPlannerEquivalencePropertyIQ drives the IQ route with random
// structured inequality chains and stars.
func TestPlannerEquivalencePropertyIQ(t *testing.T) {
	rng := rand.New(rand.NewSource(977))
	routes := map[Route]int{}
	for iter := 0; iter < 150; iter++ {
		s := formula.NewSpace()
		nlev := 2 + rng.Intn(2)
		leaves := make([]Node, nlev)
		for i := range leaves {
			rows := 1 + rng.Intn(5)
			vals := make([][]pdb.Value, rows)
			probs := make([]float64, rows)
			for r := range vals {
				vals[r] = []pdb.Value{pdb.Value(rng.Intn(10))}
				probs[r] = 0.1 + 0.8*rng.Float64()
			}
			leaves[i] = &Scan{Rel: pdb.NewTupleIndependent(
				s, fmt.Sprintf("L%d", i), []string{"v"}, vals, probs, int32(i))}
		}
		var join Node
		star := rng.Intn(2) == 0
		if star {
			join = leaves[0]
			for i := 1; i < nlev; i++ {
				join = &ThetaJoin{Left: join, Right: leaves[i], Less: &Less{LeftCol: 0, RightCol: 0}}
			}
		} else {
			join = leaves[0]
			lcol := 0
			for i := 1; i < nlev; i++ {
				join = &ThetaJoin{Left: join, Right: leaves[i], Less: &Less{LeftCol: lcol, RightCol: 0}}
				lcol = i // the i-th leaf's column in the accumulated schema
			}
		}
		root := &GroupLineage{Input: join}
		p := Compile(root)
		routes[p.Route]++
		if p.Route != RouteIQ {
			t.Fatalf("iter %d: route %v (%s), want IQ", iter, p.Route, p.Why)
		}
		got, err := p.Answers(context.Background(), s, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := evalIR(root)
		if len(got) != len(want) {
			t.Fatalf("iter %d: %d answers, eager reference %d", iter, len(got), len(want))
		}
		if len(got) == 1 {
			wp := exactP(s, want[0].Lin)
			if math.Abs(got[0].P-wp) > 1e-12 {
				t.Fatalf("iter %d: IQ %v vs exact %v", iter, got[0].P, wp)
			}
		}
	}
	t.Logf("IQ corpus routes: %v", routes)
}
