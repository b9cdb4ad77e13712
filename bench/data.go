package main

import (
	"math/rand"

	"repro/internal/formula"
	"repro/internal/pdb"
	"repro/internal/plan"
	"repro/internal/serve"
)

// hard_rst sizes: the canonical unsafe R(x),S(x,y),T(y) pattern, one
// non-read-once DNF per group.
const (
	rstSide   = 6   // |x| = |y|: each group is a sub-grid of a 6×6 bipartite grid
	rstGroups = 512 // groups in e
	rstWindow = 64  // groups one ranked query ranges over
	rstTopK   = 10
	rstEps    = 1e-3
)

// Relation tags of the benchmark's own datasets (outside the TPC-H and
// skew tag blocks).
const (
	tagX int32 = 200 + iota
	tagY
	tagE
	tagOrders
	tagDisputes
)

// hardRST is the dataset of the two rank workloads: x(i), y(j) and
// e(i, j, g) over one space.
type hardRST struct {
	Space   *formula.Space
	X, Y, E *pdb.Relation
}

// genHardRST builds the dataset from seed: x and y rows with p ∈
// (0.3, 0.8); each of the groups×side×side candidate edges present
// with probability ½ (a half-dense grid), its probability the group's
// base U(0.02, 0.32) scaled by U(0.5, 1.5). The spread of bases is what
// gives top-k a confidence ladder to separate. The x, y probabilities
// and the bases are stratified (one draw per equal-width stratum, in
// seeded random order), so that two seeds give datasets of the same
// make-up and the run-to-run spread is the machine's, not the draw's.
func genHardRST(seed int64, side, groups int) *hardRST {
	return genHardRSTInto(formula.NewSpace(), seed, "", side, groups)
}

// genHardRSTInto generates into an existing space, naming the relations
// x<suffix>, y<suffix>, e<suffix> — how the deadline-overrun probe adds
// a denser 8×8 variant to a DB that already serves the 6×6 one.
func genHardRSTInto(s *formula.Space, seed int64, suffix string, side, groups int) *hardRST {
	rng := rand.New(rand.NewSource(seed))
	unary := func(name string, tag int32) *pdb.Relation {
		name += suffix
		rows := make([][]pdb.Value, side)
		probs := make([]float64, side)
		perm := rng.Perm(side)
		for i := range rows {
			rows[i] = []pdb.Value{pdb.Value(i)}
			probs[i] = 0.3 + 0.5*(float64(perm[i])+rng.Float64())/float64(side)
		}
		return pdb.NewTupleIndependent(s, name, []string{name + "_k"}, rows, probs, tag)
	}
	x := unary("x", tagX)
	y := unary("y", tagY)
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
	e := pdb.NewTupleIndependent(s, "e"+suffix, []string{"e_i", "e_j", "e_g"}, rows, probs, tagE)
	return &hardRST{Space: s, X: x, Y: y, E: e}
}

// The joined schema of x ⋈ σ(e) ⋈ y is [x_k, e_i, e_j, e_g, y_k].
const rstGroupCol = 3

// windowIR is the ranked query over groups [a, a+rstWindow) as plan IR.
// The window is two nested single-comparison leaf filters so that
// windowWire expresses the identical plan.
func (d *hardRST) windowIR(a int64) plan.Node {
	lo, hi := pdb.Value(a), pdb.Value(a+rstWindow)
	e := &plan.Select{
		Input: &plan.Select{
			Input: &plan.Scan{Rel: d.E},
			Pred:  func(v []pdb.Value) bool { return v[2] >= lo },
		},
		Pred: func(v []pdb.Value) bool { return v[2] < hi },
	}
	xe := &plan.EquiJoin{Left: &plan.Scan{Rel: d.X}, Right: e, LeftCol: 0, RightCol: 0}
	xey := &plan.EquiJoin{Left: xe, Right: &plan.Scan{Rel: d.Y}, LeftCol: 2, RightCol: 0}
	return &plan.TopK{Input: &plan.GroupLineage{Input: xey, Cols: []int{rstGroupCol}}, K: rstTopK}
}

// windowWire is windowIR in the service's wire IR.
func windowWire(a int64) *serve.Node { return windowWireOn("", a) }

// windowWireOn is windowWire over the relations x<suffix>, y<suffix>,
// e<suffix>.
func windowWireOn(suffix string, a int64) *serve.Node {
	scan := func(name string) *serve.Node { return &serve.Node{Scan: name + suffix} }
	ge := &serve.Node{Where: &serve.Where{Input: scan("e"), Col: 2, Op: "ge", Value: a}}
	lt := &serve.Node{Where: &serve.Where{Input: ge, Col: 2, Op: "lt", Value: a + rstWindow}}
	xe := &serve.Node{Join: &serve.Join{Left: scan("x"), Right: lt, LeftCol: 0, RightCol: 0}}
	xey := &serve.Node{Join: &serve.Join{Left: xe, Right: scan("y"), LeftCol: 2, RightCol: 0}}
	gl := &serve.Node{GroupLineage: &serve.Unary{Input: xey, Cols: []int{rstGroupCol}}}
	return &serve.Node{TopK: &serve.TopK{Input: gl, K: rstTopK}}
}

// smallDB is serve_small's dataset: orders(order, customer) and
// disputes(order), 24 rows each, three orders per customer — the shape
// of internal/serve's own benchmark, with seeded probabilities.
type smallDB struct {
	Space            *formula.Space
	Orders, Disputes *pdb.Relation
}

const (
	smallCustomers = 8
	smallPerCust   = 3
	smallTopK      = 3
	smallEps       = 1e-2 // the server's DefaultEps on serve_small
)

func genSmall(seed int64) *smallDB {
	rng := rand.New(rand.NewSource(seed))
	s := formula.NewSpace()
	var orows, drows [][]pdb.Value
	var oprobs, dprobs []float64
	for c := 1; c <= smallCustomers; c++ {
		for j := 0; j < smallPerCust; j++ {
			order := pdb.Value(100 + len(orows))
			orows = append(orows, []pdb.Value{order, pdb.Value(c)})
			oprobs = append(oprobs, 0.15+0.8*rng.Float64())
			drows = append(drows, []pdb.Value{order})
			dprobs = append(dprobs, 0.1+0.8*rng.Float64())
		}
	}
	return &smallDB{
		Space:    s,
		Orders:   pdb.NewTupleIndependent(s, "orders", []string{"order", "customer"}, orows, oprobs, tagOrders),
		Disputes: pdb.NewTupleIndependent(s, "disputes", []string{"order"}, drows, dprobs, tagDisputes),
	}
}

// smallWire is serve_small's query: orders ⋈ disputes, customer ≥ 0
// (the filter above the join forces the lineage route, so the ranked
// path and the session caches are exercised), grouped per customer,
// top-3.
func smallWire() *serve.Node {
	join := &serve.Node{Join: &serve.Join{
		Left: &serve.Node{Scan: "orders"}, Right: &serve.Node{Scan: "disputes"}, LeftCol: 0, RightCol: 0,
	}}
	where := &serve.Node{Where: &serve.Where{Input: join, Col: 1, Op: "ge", Value: 0}}
	gl := &serve.Node{GroupLineage: &serve.Unary{Input: where, Cols: []int{1}}}
	return &serve.Node{TopK: &serve.TopK{Input: gl, K: smallTopK}}
}

// smallIR is smallWire as plan IR, for the façade side of the
// wire-overhead measurement.
func (d *smallDB) smallIR() plan.Node {
	join := &plan.EquiJoin{Left: &plan.Scan{Rel: d.Orders}, Right: &plan.Scan{Rel: d.Disputes}, LeftCol: 0, RightCol: 0}
	where := &plan.Select{Input: join, Pred: func(v []pdb.Value) bool { return v[1] >= 0 }}
	return &plan.TopK{Input: &plan.GroupLineage{Input: where, Cols: []int{1}}, K: smallTopK}
}
