package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/formula"
	"repro/internal/pdb"
)

func TestQuantileNearestRank(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{0.5: 5, 0.95: 10, 0.9: 9, 0.1: 1, 0: 1, 1: 10} {
		if got := quantile(asc, p); got != want {
			t.Errorf("quantile(1..10, %g) = %g, want %g", p, got, want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample should be NaN")
	}
}

// op_ms_p95 is read only when ten samples lie beyond it; minOps is the
// least for which the nearest-rank p95 leaves that many.
func TestMinOpsLeavesTenSamplesBeyondP95(t *testing.T) {
	beyond := func(n int) int {
		asc := make([]float64, n)
		for i := range asc {
			asc[i] = float64(i)
		}
		return n - 1 - int(quantile(asc, 0.95))
	}
	if got := beyond(minOps); got != 10 {
		t.Errorf("%d samples beyond the p95 of %d ops, want 10", got, minOps)
	}
	if got := beyond(minOps - 1); got >= 10 {
		t.Errorf("%d samples beyond the p95 of %d ops: minOps is not the least", got, minOps-1)
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50}, // overlaps a: [10, 50) is covered once
		{ID: 3, Parent: 0, Name: "c", Start: 60, End: 70},
		{ID: 4, Parent: 2, Name: "b.inner", Start: 25, End: 45}, // a grandchild is its parent's business
		{ID: 5, Parent: 0, Name: "late", Start: 90, End: 120},   // clipped to the parent's interval
	}
	want := []time.Duration{100 - 40 - 10 - 10, 20, 30 - 20, 10, 20, 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestByNameSumsPerOp(t *testing.T) {
	spans := []span{
		{Name: "plan.lineage", Op: 0, Start: 0, End: int64(time.Millisecond)},
		{Name: "plan.lineage", Op: 0, Start: 0, End: int64(2 * time.Millisecond)},
		{Name: "plan.lineage", Op: 1, Start: 0, End: int64(5 * time.Millisecond)},
	}
	got := byName(spans, durations(spans))["plan.lineage"]
	if want := []float64{3, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("byName = %v, want %v", got, want)
	}
}

func TestOpListIsAPureFunctionOfSeedAndClient(t *testing.T) {
	a, b := windowStarts(7, 1, 500), windowStarts(7, 1, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("windowStarts is not deterministic")
	}
	if !reflect.DeepEqual(a[:100], windowStarts(7, 1, 100)) {
		t.Error("a shorter list is not a prefix of a longer one")
	}
	if reflect.DeepEqual(a, windowStarts(8, 1, 500)) || reflect.DeepEqual(a, windowStarts(7, 0, 500)) {
		t.Error("windowStarts ignores the seed or the client")
	}
	for _, s := range a {
		if s < 0 || s+rstWindow > rstGroups {
			t.Fatalf("window [%d, %d) leaves the %d groups", s, s+rstWindow, rstGroups)
		}
	}
}

func TestPassOrdersArePermutationsDrawnFromTheSeed(t *testing.T) {
	a := passOrders(3, 7, 50)
	if !reflect.DeepEqual(a, passOrders(3, 7, 50)) {
		t.Fatal("passOrders is not deterministic")
	}
	if reflect.DeepEqual(a, passOrders(4, 7, 50)) {
		t.Error("passOrders ignores the seed")
	}
	for _, order := range a {
		seen := make([]bool, 7)
		for _, q := range order {
			seen[q] = true
		}
		if len(order) != 7 || !reflect.DeepEqual(seen, []bool{true, true, true, true, true, true, true}) {
			t.Fatalf("%v is not a permutation of the 7 queries", order)
		}
	}
}

// The kernel's allocations are subtracted from the allocation metrics
// call by call, so one call must always allocate the same — to within
// the few objects the runtime itself may allocate meanwhile, which is
// nothing against the ≥ 10⁴ allocations of the ops between two calls.
func TestCalibrationKernelAllocatesTheSameEveryCall(t *testing.T) {
	m1, b1 := calCost()
	m2, b2 := calCost()
	if math.Abs(float64(m1)-float64(m2)) > 16 || math.Abs(float64(b1)-float64(b2)) > 4096 {
		t.Errorf("calCost = (%d, %d), then (%d, %d)", m1, b1, m2, b2)
	}
	if m1 < calItems {
		t.Errorf("the kernel made %d allocations, fewer than its %d items", m1, calItems)
	}
	if got := speedFactor([]float64{3.5, 14, 3.5}); got != 2 {
		t.Errorf("speedFactor at a 3.5 ms median = %g, want 2 (reference %v)", got, calRef)
	}
}

func relationDump(s *formula.Space, r *pdb.Relation) (vals [][]pdb.Value, probs []float64) {
	for _, t := range r.Tups {
		vals = append(vals, t.Vals)
		probs = append(probs, t.Lin.Probability(s))
	}
	return vals, probs
}

func TestHardRSTGeneratorIsDeterministic(t *testing.T) {
	a, b, c := genHardRST(3, rstSide, 32), genHardRST(3, rstSide, 32), genHardRST(4, rstSide, 32)
	for _, rel := range []func(*hardRST) *pdb.Relation{
		func(d *hardRST) *pdb.Relation { return d.X },
		func(d *hardRST) *pdb.Relation { return d.Y },
		func(d *hardRST) *pdb.Relation { return d.E },
	} {
		av, ap := relationDump(a.Space, rel(a))
		bv, bp := relationDump(b.Space, rel(b))
		if !reflect.DeepEqual(av, bv) || !reflect.DeepEqual(ap, bp) {
			t.Fatalf("relation %s differs between two generations from one seed", rel(a).Name)
		}
	}
	_, ap := relationDump(a.Space, a.E)
	_, cp := relationDump(c.Space, c.E)
	if reflect.DeepEqual(ap, cp) {
		t.Error("another seed generated the same edge probabilities")
	}
	for _, p := range ap {
		if p <= 0 || p >= 1 {
			t.Fatalf("edge probability %g outside (0, 1)", p)
		}
	}
}

// The enumeration oracle must agree with the engine's exact d-tree on
// the formulas it stands in judgement over.
func TestRSTOracleAgreesWithExactDTree(t *testing.T) {
	d := genHardRST(5, rstSide, 6)
	byGroup := make(map[pdb.Value]formula.DNF)
	for _, e := range d.E.Tups {
		var atoms []formula.Atom
		atoms = append(atoms, d.X.Tups[e.Vals[0]].Lin...)
		atoms = append(atoms, e.Lin...)
		atoms = append(atoms, d.Y.Tups[e.Vals[1]].Lin...)
		byGroup[e.Vals[2]] = append(byGroup[e.Vals[2]], formula.MustClause(atoms...))
	}
	ps := rstOracle(d)
	if len(ps) != len(byGroup) {
		t.Fatalf("oracle has %d groups, data has %d", len(ps), len(byGroup))
	}
	for g, dnf := range byGroup {
		if want := core.ExactProbability(d.Space, dnf); math.Abs(ps[g]-want) > exactTol {
			t.Errorf("group %d: enumeration %.12g, d-tree %.12g", g, ps[g], want)
		}
	}
}

func TestSmallOracleAgreesWithExactDTree(t *testing.T) {
	d := genSmall(2)
	dispute := make(map[pdb.Value]formula.Clause)
	for _, tp := range d.Disputes.Tups {
		dispute[tp.Vals[0]] = tp.Lin
	}
	byCust := make(map[pdb.Value]formula.DNF)
	for _, tp := range d.Orders.Tups {
		atoms := append(append([]formula.Atom(nil), tp.Lin...), dispute[tp.Vals[0]]...)
		byCust[tp.Vals[1]] = append(byCust[tp.Vals[1]], formula.MustClause(atoms...))
	}
	want := smallOracle(d)
	if len(want) != smallCustomers {
		t.Fatalf("oracle has %d customers, want %d", len(want), smallCustomers)
	}
	for c, dnf := range byCust {
		if p := core.ExactProbability(d.Space, dnf); math.Abs(want[pdb.ValsKey([]pdb.Value{c})]-p) > exactTol {
			t.Errorf("customer %d: oracle %.12g, d-tree %.12g", c, want[pdb.ValsKey([]pdb.Value{c})], p)
		}
	}
}

func TestTopKNearTieRule(t *testing.T) {
	cand := expected{"a": 0.9, "b": 0.5, "c": 0.5 - 5e-10, "d": 0.1}
	ans := func(keys ...string) []got {
		out := make([]got, len(keys))
		for i, k := range keys {
			out[i] = got{key: k, p: cand[k], lo: cand[k], hi: cand[k], converged: true}
		}
		return out
	}
	// b and c are within 1e-9 of the cut: either completes the top-2.
	for _, gs := range [][]got{ans("a", "b"), ans("a", "c")} {
		if err := checkTopK(cand, gs, 2, 0); err != nil {
			t.Errorf("near-tie member rejected: %v", err)
		}
	}
	for name, gs := range map[string][]got{
		"clear non-member":  ans("a", "d"),
		"clear member left": ans("b", "c"),
		"too few":           ans("a"),
		"duplicate":         ans("a", "a"),
		"unknown key":       {{key: "z", p: 1, lo: 1, hi: 1}, {key: "a", p: 0.9, lo: 0.9, hi: 0.9}},
	} {
		if err := checkTopK(cand, gs, 2, 0); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Under an ε ranking, estimates ε off may swap answers up to 2ε apart.
	wide := expected{"a": 0.9, "b": 0.5, "c": 0.485, "d": 0.1}
	loose := []got{{key: "a", p: 0.9, lo: 0.8, hi: 1}, {key: "c", p: 0.49, lo: 0.4, hi: 0.6}}
	if err := checkTopK(wide, loose, 2, 1e-2); err != nil {
		t.Errorf("swap within 2ε rejected: %v", err)
	}
	if err := checkTopK(wide, loose, 2, 1e-3); err == nil {
		t.Error("swap beyond 2ε accepted")
	}
	// Bounds that exclude P* are a failure whatever the membership.
	bad := []got{{key: "a", p: 0.9, lo: 0.91, hi: 1}, {key: "b", p: 0.5, lo: 0.4, hi: 0.6}}
	if err := checkTopK(wide, bad, 2, 1e-2); err == nil {
		t.Error("bounds excluding P* accepted")
	}
}

func TestCheckAnswers(t *testing.T) {
	want := expected{"1": 0.25, "2": 0.75}
	ok := []got{{key: "1", p: 0.2501, lo: 0.24, hi: 0.26, converged: true}, {key: "2", p: 0.75, lo: 0.75, hi: 0.75, converged: true}}
	if err := checkAnswers(want, ok, 1e-3); err != nil {
		t.Errorf("answers within ε rejected: %v", err)
	}
	if err := checkAnswers(want, ok, 0); err == nil {
		t.Error("an estimate 1e-4 off accepted as exact")
	}
	if err := checkAnswers(want, ok[:1], 1e-3); err == nil {
		t.Error("a missing answer accepted")
	}
}

// BENCHMARK.json is the driver's copy of the tables in this package;
// the two must not drift apart.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the table %q", i, spec.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the table", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (bounded && g.Bound != d.bound) {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the table %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, perLayer, false)
}
