package tpch

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/formula"
	"repro/internal/pdb"
	"repro/internal/plan"
)

// booleanDNF evaluates a Boolean plan to its answer lineage (nil when
// the answer is certainly false).
func booleanDNF(n plan.Node) formula.DNF {
	answers := plan.Lineage(n)
	if len(answers) == 0 {
		return nil
	}
	return answers[0].Lin
}

// tiny generates a small database suitable for exhaustive cross-checks.
func tiny(t *testing.T) *DB {
	t.Helper()
	return Generate(Config{SF: 0.0004, ProbHigh: 1, Seed: 1})
}

func TestGenerateShape(t *testing.T) {
	db := Generate(Config{SF: 0.001, ProbHigh: 1, Seed: 2})
	if db.Region.Len() != 5 || db.Nation.Len() != 25 {
		t.Fatalf("region %d, nation %d", db.Region.Len(), db.Nation.Len())
	}
	if db.Supplier.Len() != 10 {
		t.Fatalf("supplier %d, want 10", db.Supplier.Len())
	}
	if db.Part.Len() != 200 {
		t.Fatalf("part %d, want 200", db.Part.Len())
	}
	if db.PartSupp.Len() != 4*db.Part.Len() {
		t.Fatalf("partsupp %d, want %d", db.PartSupp.Len(), 4*db.Part.Len())
	}
	if db.Orders.Len() != 10*db.Customer.Len() {
		t.Fatalf("orders %d vs customer %d", db.Orders.Len(), db.Customer.Len())
	}
	if db.Lineitem.Len() < db.Orders.Len() || db.Lineitem.Len() > 7*db.Orders.Len() {
		t.Fatalf("lineitem %d for %d orders", db.Lineitem.Len(), db.Orders.Len())
	}
}

func TestGenerateScaling(t *testing.T) {
	small := Generate(Config{SF: 0.001, ProbHigh: 1, Seed: 3})
	big := Generate(Config{SF: 0.002, ProbHigh: 1, Seed: 3})
	if big.Part.Len() != 2*small.Part.Len() {
		t.Fatalf("part did not scale: %d vs %d", big.Part.Len(), small.Part.Len())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{SF: 0.001, ProbHigh: 1, Seed: 5})
	b := Generate(Config{SF: 0.001, ProbHigh: 1, Seed: 5})
	if a.Lineitem.Len() != b.Lineitem.Len() {
		t.Fatal("same seed must give same cardinalities")
	}
	for i := range a.Lineitem.Tups {
		av, bv := a.Lineitem.Tups[i].Vals, b.Lineitem.Tups[i].Vals
		for c := range av {
			if av[c] != bv[c] {
				t.Fatalf("tuple %d differs", i)
			}
		}
	}
}

func TestGenerateProbabilityRegimes(t *testing.T) {
	db := Generate(Config{SF: 0.001, ProbHigh: 0.01, Seed: 7})
	for _, tup := range db.Lineitem.Tups {
		p := tup.Lin.Probability(db.Space)
		if p <= 0 || p > 0.01 {
			t.Fatalf("tuple probability %v outside (0, 0.01]", p)
		}
	}
}

func TestReferentialIntegrity(t *testing.T) {
	db := Generate(Config{SF: 0.001, ProbHigh: 1, Seed: 9})
	nSupp := db.Supplier.Len()
	nPart := db.Part.Len()
	nOrders := db.Orders.Len()
	psPairs := map[[2]pdb.Value]bool{}
	for _, tup := range db.PartSupp.Tups {
		if int(tup.Vals[psPartkey]) >= nPart || int(tup.Vals[psSuppkey]) >= nSupp {
			t.Fatal("partsupp key out of range")
		}
		psPairs[[2]pdb.Value{tup.Vals[psPartkey], tup.Vals[psSuppkey]}] = true
	}
	for _, tup := range db.Lineitem.Tups {
		if int(tup.Vals[lOrderkey]) >= nOrders {
			t.Fatal("lineitem orderkey out of range")
		}
		// Every lineitem's (partkey, suppkey) pair exists in partsupp,
		// as in TPC-H.
		if !psPairs[[2]pdb.Value{tup.Vals[lPartkey], tup.Vals[lSuppkey]}] {
			t.Fatalf("lineitem (pk,sk)=(%d,%d) not in partsupp",
				tup.Vals[lPartkey], tup.Vals[lSuppkey])
		}
	}
}

func TestHardQueriesProduceLineage(t *testing.T) {
	db := Generate(Config{SF: 0.002, ProbHigh: 1, Seed: 6})
	lins := map[string]int{
		"B2":  len(booleanDNF(db.B2IR(15, 1))),
		"B9":  len(booleanDNF(db.B9IR(10))),
		"B20": len(booleanDNF(db.B20IR(db.CommonNationKey(), 3, 50))),
		"B21": len(booleanDNF(db.B21IR(db.CommonNationKey()))),
	}
	for name, n := range lins {
		if n == 0 {
			t.Errorf("%s produced empty lineage at SF 0.002", name)
		}
	}
}

func TestHardQueryApproxWithinBounds(t *testing.T) {
	db := tiny(t)
	lin := booleanDNF(db.B21IR(db.CommonNationKey()))
	if len(lin) == 0 {
		t.Skip("B21 empty at tiny scale")
	}
	res, err := core.ApproxCtx(context.Background(), db.Space, lin, core.Options{Eps: 0.01, Kind: core.Relative})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("B21 did not converge at tiny scale")
	}
	if res.Lo > res.Estimate || res.Hi < res.Estimate {
		t.Fatalf("estimate %v outside bounds [%v, %v]", res.Estimate, res.Lo, res.Hi)
	}
}

func TestB20SingleNationVariable(t *testing.T) {
	// The equality selection on nation leaves exactly one nation
	// variable in B20's lineage (the paper's observation about B20/B21).
	db := Generate(Config{SF: 0.002, ProbHigh: 1, Seed: 6})
	lin := booleanDNF(db.B20IR(db.CommonNationKey(), 3, 20))
	if len(lin) == 0 {
		t.Skip("B20 empty")
	}
	nationVars := map[int32]bool{}
	for _, v := range lin.Vars() {
		if db.Space.Tag(v) == TagNation {
			nationVars[int32(v)] = true
		}
	}
	if len(nationVars) != 1 {
		t.Fatalf("lineage has %d nation variables, want 1", len(nationVars))
	}
}

func TestEveryKth(t *testing.T) {
	db := tiny(t)
	thin := everyKth(db.Lineitem, 10)
	if thin.Len() > 10+1 || thin.Len() == 0 {
		t.Fatalf("thinned to %d, want ≈10", thin.Len())
	}
	same := everyKth(db.Region, 100)
	if same.Len() != db.Region.Len() {
		t.Fatal("everyKth must not grow small relations")
	}
}

// TestGenerateSkewed checks the skewed-join workload: generation is
// deterministic per seed, the Boolean query's lineage is exactly the
// union of the grouped answers' lineages, and at the same seed Zipf
// keys (skew > 1) make the largest group larger than uniform keys do.
func TestGenerateSkewed(t *testing.T) {
	const rows, keys, seed = 2000, 40, 3
	largest := func(db *SkewDB) int {
		n := 0
		for _, a := range plan.Lineage(db.JoinIR()) {
			n = max(n, len(a.Lin))
		}
		return n
	}
	a, b := GenerateSkewed(rows, keys, 1.2, seed), GenerateSkewed(rows, keys, 1.2, seed)
	for _, r := range [][2]*pdb.Relation{{a.Fact, b.Fact}, {a.Dim, b.Dim}} {
		if !reflect.DeepEqual(r[0].Tups, r[1].Tups) {
			t.Fatalf("%s differs between two runs at one seed", r[0].Name)
		}
	}
	for v := 0; v < a.Space.NumVars(); v++ {
		if x := formula.Var(v); a.Space.PTrue(x) != b.Space.PTrue(x) {
			t.Fatalf("variable %d: probability %v and %v at one seed", v, a.Space.PTrue(x), b.Space.PTrue(x))
		}
	}

	union := map[string]int{}
	for _, g := range plan.Lineage(a.JoinIR()) {
		for _, c := range g.Lin {
			union[fmt.Sprint(c)]++
		}
	}
	boolean := plan.Lineage(a.BooleanIR())
	if len(boolean) != 1 {
		t.Fatalf("Boolean query has %d answers, want 1", len(boolean))
	}
	if len(boolean[0].Lin) != len(union) {
		t.Fatalf("Boolean answer has %d clauses, the groups %d distinct ones", len(boolean[0].Lin), len(union))
	}
	for _, c := range boolean[0].Lin {
		if union[fmt.Sprint(c)] != 1 {
			t.Fatalf("Boolean clause %v is in %d groups, want 1", c, union[fmt.Sprint(c)])
		}
	}

	if skewed, uniform := largest(a), largest(GenerateSkewed(rows, keys, 1, seed)); skewed <= uniform {
		t.Fatalf("largest group %d under skew 1.2, %d under uniform keys", skewed, uniform)
	}
}

// TestHardRSTWindow checks the hard R-S-T workload: a window's lineage
// has one answer per group in the window that has edges, and each of
// its clauses is one e(i, j, g) edge joined with x(i) and y(j).
func TestHardRSTWindow(t *testing.T) {
	const side, groups, a, width = 3, 20, 5, 8
	d := GenerateHardRST(7, side, groups)
	edges := map[pdb.Value]int{}
	for _, tup := range d.E.Tups {
		edges[tup.Vals[2]]++
	}
	top, ok := d.WindowIR(a, width, 4).(*plan.TopK)
	if !ok || top.K != 4 {
		t.Fatalf("window query is %T, want a top-4", d.WindowIR(a, width, 4))
	}
	answers := plan.Lineage(top.Input)
	want := 0
	for g := pdb.Value(a); g < a+width; g++ {
		if edges[g] > 0 {
			want++
		}
	}
	if len(answers) != want {
		t.Fatalf("%d answers, want the %d groups with edges in [%d, %d)", len(answers), want, a, a+width)
	}
	for _, ans := range answers {
		g := ans.Vals[0]
		if g < a || g >= a+width || len(ans.Lin) != edges[g] {
			t.Fatalf("group %d: %d clauses, want its %d edges", g, len(ans.Lin), edges[g])
		}
		for _, c := range ans.Lin {
			if len(c) != 3 {
				t.Fatalf("group %d: clause %v is not x ∧ e ∧ y", g, c)
			}
		}
	}
}

// TestVariableNamesByRule: every variable of the generated spaces is
// named "<relation>#<row>", the name its relation's naming run formats.
func TestVariableNamesByRule(t *testing.T) {
	db := Generate(Config{SF: 0.001, ProbHigh: 1, Seed: 42})
	skew := GenerateSkewed(500, 10, 1.2, 7)
	for _, tc := range []struct {
		name string
		s    *formula.Space
		rels []*pdb.Relation
	}{
		{"tpch", db.Space, db.Relations()},
		{"skew", skew.Space, []*pdb.Relation{skew.Fact, skew.Dim}},
	} {
		n := 0
		for _, r := range tc.rels {
			for i, tup := range r.Tups {
				want := fmt.Sprintf("%s#%d", r.Name, i)
				if got := tc.s.Name(tup.Lin[0].Var); got != want {
					t.Fatalf("%s: Name(%d) = %q, want %q", tc.name, tup.Lin[0].Var, got, want)
				}
				n++
			}
		}
		if n != tc.s.NumVars() {
			t.Fatalf("%s: %d tuples name %d variables", tc.name, n, tc.s.NumVars())
		}
	}
}
