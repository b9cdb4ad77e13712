package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro"
	"repro/internal/engine"
	"repro/internal/pdb"
	"repro/internal/plan"
)

// Tolerances of the cross-route check.
const (
	exactTol  = 1e-9  // two exact routes may differ by rounding only
	boundsTol = 1e-12 // slack on lo ≤ P* ≤ hi
)

// expected is one query's oracle answer set: answer key → P*.
type expected map[string]float64

// got is one answer as the client saw it, whatever the transport.
type got struct {
	key       string
	p, lo, hi float64
	converged bool
}

func gotFromAnswers(as []repro.Answer) []got {
	out := make([]got, len(as))
	for i, a := range as {
		out[i] = got{key: pdb.ValsKey(a.Vals), p: a.P, lo: a.Res.Lo, hi: a.Res.Hi, converged: a.Res.Converged}
	}
	return out
}

// checkAnswers checks an unranked query's full answer set against the
// oracle: the same keys, every estimate within eps (+ rounding) of P*,
// and P* inside the reported bounds.
func checkAnswers(want expected, gs []got, eps float64) error {
	if len(gs) != len(want) {
		return fmt.Errorf("%d answers, oracle has %d", len(gs), len(want))
	}
	for _, g := range gs {
		p, ok := want[g.key]
		if !ok {
			return fmt.Errorf("answer %q is not in the oracle's answer set", g.key)
		}
		if err := checkOne(g, p, eps); err != nil {
			return err
		}
	}
	return nil
}

func checkOne(g got, p, eps float64) error {
	if p < g.lo-boundsTol || p > g.hi+boundsTol {
		return fmt.Errorf("answer %q: P*=%.12g outside reported bounds [%.12g, %.12g]", g.key, p, g.lo, g.hi)
	}
	if g.converged && math.Abs(g.p-p) > eps+exactTol {
		return fmt.Errorf("answer %q: |P−P*| = |%.12g − %.12g| exceeds ε=%g", g.key, g.p, p, eps)
	}
	return nil
}

// checkTopK checks a ranked query: exactly min(k, candidates) distinct
// answers, all candidates, each with sound bounds, and the oracle's
// top-k key set up to the near-tie rule — a candidate whose P* lies
// within tol of the cut (the k-th largest P*) is accepted in or out,
// everything above must be in, everything below must be out. tol is
// exactTol on exact rankings and 2ε + exactTol on ε rankings, where the
// scheduler may cut two answers by estimates that are each ε off.
func checkTopK(cand expected, gs []got, k int, eps float64) error {
	n := min(k, len(cand))
	if len(gs) != n {
		return fmt.Errorf("%d ranked answers, want %d", len(gs), n)
	}
	if n == 0 {
		return nil
	}
	ps := make([]float64, 0, len(cand))
	for _, p := range cand {
		ps = append(ps, p)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(ps)))
	cut, tol := ps[n-1], 2*eps+exactTol
	in := make(map[string]bool, n)
	for _, g := range gs {
		p, ok := cand[g.key]
		if !ok {
			return fmt.Errorf("ranked answer %q is not a candidate", g.key)
		}
		if in[g.key] {
			return fmt.Errorf("ranked answer %q returned twice", g.key)
		}
		in[g.key] = true
		if p < cut-tol {
			return fmt.Errorf("ranked answer %q: P*=%.12g is below the top-%d cut %.12g", g.key, p, k, cut)
		}
		if err := checkOne(g, p, eps); err != nil {
			return err
		}
	}
	for key, p := range cand {
		if p > cut+tol && !in[key] {
			return fmt.Errorf("candidate %q with P*=%.12g above the top-%d cut %.12g is missing", key, p, k, cut)
		}
	}
	return nil
}

// oracleTimeout bounds one oracle evaluation; a dataset whose hard
// queries cannot be solved exactly in this time is a set-up failure,
// not something to measure against.
const oracleTimeout = 20 * time.Second

// crossRoute evaluates node by a route other than the one the workload
// measures. Measured on the structural routes (forced false), the
// oracle forces lineage and compiles each answer's DNF exactly;
// measured under forced lineage, the oracle takes the planner's own
// route — the safe plan where there is one, and exact d-tree
// compilation (where the workload runs the ε-approximation) for the
// naturally hard queries.
func crossRoute(ctx context.Context, db *repro.DB, node plan.Node, measuredForced bool) (expected, error) {
	var opts []repro.SessionOption
	if !measuredForced {
		opts = append(opts, repro.WithForceLineage())
	}
	opts = append(opts, repro.WithBudget(engine.Budget{Timeout: oracleTimeout}))
	as, err := db.Session(opts...).Query(node).All(ctx)
	if err != nil {
		return nil, err
	}
	want := make(expected, len(as))
	for _, a := range as {
		if !a.Res.Exact {
			return nil, fmt.Errorf("oracle answer %v is not exact", a.Vals)
		}
		want[pdb.ValsKey(a.Vals)] = a.P
	}
	return want, nil
}

// rstOracle computes every group's exact confidence by possible-world
// enumeration straight from the relations, sharing no code with the
// planner, the lineage pipeline or the d-tree: for each of the 2^|x| ·
// 2^|y| presence patterns of the x and y rows, the group's edges whose
// endpoints are both present are independent, so the group holds with
// probability 1 − Π(1 − p_e) over them. The top-k of any window is then
// a sort of these.
func rstOracle(d *hardRST) map[pdb.Value]float64 {
	type edge struct {
		xbit, ybit uint
		p          float64
	}
	byGroup := make(map[pdb.Value][]edge)
	for _, t := range d.E.Tups {
		i, j, g := t.Vals[0], t.Vals[1], t.Vals[2]
		byGroup[g] = append(byGroup[g], edge{1 << uint(i), 1 << uint(j), t.Lin.Probability(d.Space)})
	}
	// weights[m] is the probability that exactly the rows in mask m are
	// present.
	weights := func(r *pdb.Relation) []float64 {
		w := make([]float64, 1<<len(r.Tups))
		for m := range w {
			w[m] = 1
			for i, t := range r.Tups {
				if p := t.Lin.Probability(d.Space); m>>i&1 == 1 {
					w[m] *= p
				} else {
					w[m] *= 1 - p
				}
			}
		}
		return w
	}
	wx, wy := weights(d.X), weights(d.Y)
	ps := make(map[pdb.Value]float64, len(byGroup))
	for g, edges := range byGroup {
		var total float64
		for xm, px := range wx {
			for ym, py := range wy {
				none := 1.0
				for _, e := range edges {
					if uint(xm)&e.xbit != 0 && uint(ym)&e.ybit != 0 {
						none *= 1 - e.p
					}
				}
				total += px * py * (1 - none)
			}
		}
		ps[g] = total
	}
	return ps
}

// window returns the oracle's candidates for groups [a, a+rstWindow).
func window(ps map[pdb.Value]float64, a int64) expected {
	w := make(expected, rstWindow)
	for g := pdb.Value(a); g < pdb.Value(a+rstWindow); g++ {
		if p, ok := ps[g]; ok {
			w[pdb.ValsKey([]pdb.Value{g})] = p
		}
	}
	return w
}

// smallOracle computes each customer's exact confidence from the
// relations: 1 − Π(1 − p_order·p_dispute) over the customer's orders,
// which are independent.
func smallOracle(d *smallDB) expected {
	dispute := make(map[pdb.Value]float64)
	for _, t := range d.Disputes.Tups {
		dispute[t.Vals[0]] = t.Lin.Probability(d.Space)
	}
	none := make(map[pdb.Value]float64)
	for _, t := range d.Orders.Tups {
		c := t.Vals[1]
		if _, ok := none[c]; !ok {
			none[c] = 1
		}
		none[c] *= 1 - t.Lin.Probability(d.Space)*dispute[t.Vals[0]]
	}
	want := make(expected, len(none))
	for c, q := range none {
		want[pdb.ValsKey([]pdb.Value{c})] = 1 - q
	}
	return want
}
