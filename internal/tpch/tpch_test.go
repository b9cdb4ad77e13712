package tpch

import (
	"context"
	"math"
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

func TestB1AgainstSprout(t *testing.T) {
	db := tiny(t)
	cutoff := pdb.Value(maxDate / 2)
	lin := booleanDNF(db.B1IR(cutoff))
	if len(lin) == 0 {
		t.Fatal("B1 lineage empty")
	}
	want := db.SproutB1(cutoff)
	got, err := core.ApproxCtx(context.Background(), db.Space, lin, core.Options{Eps: 1e-6, Kind: core.Absolute})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Estimate-want) > 1e-5 {
		t.Fatalf("d-tree %v vs SPROUT %v", got.Estimate, want)
	}
}

func TestQ1AgainstSprout(t *testing.T) {
	db := tiny(t)
	cutoff := pdb.Value(maxDate * 3 / 4)
	answers := plan.Lineage(db.Q1IR(cutoff))
	safe := db.SproutQ1(cutoff)
	if len(answers) != len(safe.Rows) {
		t.Fatalf("answer counts differ: %d vs %d", len(answers), len(safe.Rows))
	}
	byKey := map[[2]pdb.Value]float64{}
	for _, row := range safe.Rows {
		byKey[[2]pdb.Value{row.Vals[0], row.Vals[1]}] = row.P
	}
	for _, a := range answers {
		want := byKey[[2]pdb.Value{a.Vals[0], a.Vals[1]}]
		got := exactP(db.Space, a.Lin)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("answer %v: d-tree %v vs sprout %v", a.Vals, got, want)
		}
	}
}

func TestB6AgainstSprout(t *testing.T) {
	db := tiny(t)
	lin := booleanDNF(db.B6IR(300, 1200, 2, 6, 30))
	want := db.SproutB6(300, 1200, 2, 6, 30)
	if len(lin) == 0 {
		t.Skip("selection empty at this scale")
	}
	got := exactP(db.Space, lin)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("d-tree %v vs SPROUT %v", got, want)
	}
}

func TestQ15AgainstSprout(t *testing.T) {
	db := tiny(t)
	answers := plan.Lineage(db.Q15IR(0, maxDate/3))
	safe := db.SproutQ15(0, maxDate/3)
	byKey := map[pdb.Value]float64{}
	for _, row := range safe.Rows {
		byKey[row.Vals[0]] = row.P
	}
	if len(answers) == 0 {
		t.Skip("no supplier qualifies at this scale")
	}
	for _, a := range answers {
		want, ok := byKey[a.Vals[0]]
		if !ok {
			t.Fatalf("supplier %d missing from safe plan", a.Vals[0])
		}
		got := exactP(db.Space, a.Lin)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("supplier %d: %v vs %v", a.Vals[0], got, want)
		}
	}
}

func TestB16AgainstSprout(t *testing.T) {
	db := tiny(t)
	lin := booleanDNF(db.B16IR(5, 20))
	if len(lin) == 0 {
		t.Skip("empty selection")
	}
	want := db.SproutB16(5, 20)
	got := exactP(db.Space, lin)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("d-tree %v vs SPROUT %v", got, want)
	}
}

func TestB17AgainstSprout(t *testing.T) {
	db := Generate(Config{SF: 0.002, ProbHigh: 1, Seed: 4})
	lin := booleanDNF(db.B17IR(3, 7))
	if len(lin) == 0 {
		t.Skip("empty selection")
	}
	want := db.SproutB17(3, 7)
	got := exactP(db.Space, lin)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("d-tree %v vs SPROUT %v", got, want)
	}
}

func TestIQB1AgainstSprout(t *testing.T) {
	db := tiny(t)
	lin := booleanDNF(db.IQB1IR(12, 30))
	want := db.SproutIQB1(12, 30)
	if len(lin) == 0 {
		if want != 0 {
			t.Fatalf("empty lineage but sprout %v", want)
		}
		return
	}
	got := exactP(db.Space, lin)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("d-tree %v vs SPROUT %v", got, want)
	}
}

func TestIQB4AgainstSprout(t *testing.T) {
	db := tiny(t)
	lin := booleanDNF(db.IQB4IR(8, 12, 12))
	want := db.SproutIQB4(8, 12, 12)
	if len(lin) == 0 {
		if want > 1e-12 {
			t.Fatalf("empty lineage but sprout %v", want)
		}
		return
	}
	got := exactP(db.Space, lin)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("d-tree %v vs SPROUT %v", got, want)
	}
}

func TestIQ6AgainstSprout(t *testing.T) {
	db := tiny(t)
	lin := booleanDNF(db.IQ6IR(8, 12, 12))
	want := db.SproutIQ6(8, 12, 12)
	if len(lin) == 0 {
		if want > 1e-12 {
			t.Fatalf("empty lineage but sprout %v", want)
		}
		return
	}
	got := exactP(db.Space, lin)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("d-tree %v vs SPROUT %v", got, want)
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

// exactP is P(d) by exact d-tree compilation.
func exactP(s *formula.Space, d formula.DNF) float64 {
	res, err := core.ExactCtx(context.Background(), s, d, core.Options{})
	if err != nil {
		panic(err)
	}
	return res.Estimate
}
