package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/formula"
	"repro/internal/randdnf"
)

// kernelParts, kernelVar, kernelMostFrequentVar and kernelIQVar run
// one entry point of the decomposition step over a scratch of their
// own.
func kernelParts(s *formula.Space, d formula.DNF) []formula.DNF {
	sc := new(prepScratch)
	sc.scanVars(s, d, maxVar(d))
	return independentAndParts(d, sc)
}

func kernelVar(s *formula.Space, d formula.DNF) formula.Var {
	sc := new(prepScratch)
	sc.scanVars(s, d, maxVar(d))
	return chooseVar(d, sc)
}

func kernelMostFrequentVar(s *formula.Space, d formula.DNF) formula.Var {
	sc := new(prepScratch)
	sc.scanVars(s, d, maxVar(d))
	return mostFrequentVar(sc)
}

func kernelIQVar(s *formula.Space, d formula.DNF) (formula.Var, bool) {
	sc := new(prepScratch)
	sc.scanVars(s, d, maxVar(d))
	return iqVariable(d, sc)
}

// diffStep compares the array kernels, run over sc (shared across
// cases, so stale stamps from earlier fragments are in play), with the
// map oracle on d: the ⊙ parts clause for clause and in order, the
// Lemma 6.8 choice, the most-frequent fallback and the ⊕ variable.
// Then, when d is in step's domain, it runs the whole step against
// stepRef (see diffChildren). It returns a description of the first
// difference, or "".
func diffStep(sc *prepScratch, s *formula.Space, d formula.DNF) string {
	sc.scanVars(s, d, maxVar(d))
	got, want := independentAndParts(d, sc), refIndependentAndParts(s, d)
	if len(got) != len(want) {
		return fmt.Sprintf("⊙: %d parts, oracle %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Sprintf("⊙ part %d: %d clauses, oracle %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !got[i][j].Equal(want[i][j]) {
				return fmt.Sprintf("⊙ part %d clause %d: %v, oracle %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	gv, gok := iqVariable(d, sc)
	wv, wok := refIqVariable(s, d)
	if gv != wv || gok != wok {
		return fmt.Sprintf("Lemma 6.8: (%d, %v), oracle (%d, %v)", gv, gok, wv, wok)
	}
	if g, w := mostFrequentVar(sc), refMostFrequentVar(d); g != w {
		return fmt.Sprintf("most frequent: x%d, oracle x%d", g, w)
	}
	if g, w := chooseVar(d, sc), refChooseVar(s, d); g != w {
		return fmt.Sprintf("⊕: x%d, oracle x%d", g, w)
	}
	// step's domain: the multi-clause fragments leafHead passes on.
	if d = d.Normalize(); len(d) < 2 || d.IsTrue() {
		return ""
	}
	if diff := diffChildren(sc, s, d); diff != "" {
		return "step: " + diff
	}
	return ""
}

// diffChildren runs step on d over sc and compares it with stepRef:
// the kind, the ⊕ node count, the weights bitwise and the children
// clause for clause and in order. Every child DNF, and every child
// clause that is not one of d's own, must have cap == len, so that an
// append to one child can never write into a sibling's part of the
// step's shared block.
func diffChildren(sc *prepScratch, s *formula.Space, d formula.DNF) string {
	st := newState(context.Background(), s, Options{})
	ref := newState(context.Background(), s, Options{})
	kind, subs, mult := st.step(d, sc)
	wantKind, want, wantMult := ref.stepRef(d)
	if kind != wantKind || len(subs) != len(want) {
		return fmt.Sprintf("%v with %d children, oracle %v with %d", kind, len(subs), wantKind, len(want))
	}
	if g, w := st.nodes, ref.nodes; g != w {
		return fmt.Sprintf("%d nodes counted, oracle %d", g, w)
	}
	if len(mult) != len(wantMult) {
		return fmt.Sprintf("%d weights, oracle %d", len(mult), len(wantMult))
	}
	for i := range wantMult {
		if math.Float64bits(mult[i]) != math.Float64bits(wantMult[i]) {
			return fmt.Sprintf("weight %d: %v, oracle %v", i, mult[i], wantMult[i])
		}
	}
	own := make(map[*formula.Atom]int, len(d))
	for _, c := range d {
		if len(c) > 0 {
			own[&c[0]] = len(c)
		}
	}
	for i := range want {
		if cap(subs[i]) != len(subs[i]) {
			return fmt.Sprintf("child %d: cap %d, len %d", i, cap(subs[i]), len(subs[i]))
		}
		if len(subs[i]) != len(want[i]) {
			return fmt.Sprintf("child %d: %d clauses, oracle %d", i, len(subs[i]), len(want[i]))
		}
		for j, c := range subs[i] {
			if !c.Equal(want[i][j]) {
				return fmt.Sprintf("child %d clause %d: %v, oracle %v", i, j, c, want[i][j])
			}
			if len(c) > 0 && own[&c[0]] == len(c) {
				continue
			}
			if cap(c) != len(c) {
				return fmt.Sprintf("child %d clause %d: cap %d, len %d", i, j, cap(c), len(c))
			}
		}
	}
	return ""
}

// sparseTags are caller-chosen relation tags: negative, zero, huge —
// anything but dense.
var sparseTags = []int32{-7, 0, 3, 1 << 30, 41, -2, 1 << 20, 9, 1000, 77, -100, 5, 6, 12345, 8, -9, 31, 2}

// retag copies s with every variable's tag replaced by tag(v).
func retag(s *formula.Space, tag func(v formula.Var) int32) *formula.Space {
	out := formula.NewSpace()
	for v := formula.Var(0); int(v) < s.NumVars(); v++ {
		dist := make([]float64, s.DomainSize(v))
		for a := range dist {
			dist[a] = s.P(formula.Atom{Var: v, Val: formula.Val(a)})
		}
		if t := tag(v); t == formula.NoTag {
			out.AddVar(dist...)
		} else {
			out.AddVarTagged(t, dist...)
		}
	}
	return out
}

// product expands (∨ groups[0]) ∧ (∨ groups[1]) ∧ … into its clauses,
// the leftmost group varying slowest.
func product(groups ...[]formula.Clause) formula.DNF {
	d := formula.DNF{nil}
	for _, g := range groups {
		var next formula.DNF
		for _, acc := range d {
			for _, c := range g {
				m, ok := acc.Merge(c)
				if !ok {
					panic("product: inconsistent groups")
				}
				next = append(next, m)
			}
		}
		d = next
	}
	return d
}

func posClauses(vars ...formula.Var) []formula.Clause {
	out := make([]formula.Clause, len(vars))
	for i, v := range vars {
		out[i] = formula.MustClause(formula.Pos(v))
	}
	return out
}

var (
	sparseOnce  sync.Once
	sparseSpace *formula.Space
	sparseVars  []formula.Var
)

// sparseIDs returns a space of 2²⁰ variables of which only the last 300
// are tagged (round-robin over three relations) and used.
func sparseIDs() (*formula.Space, []formula.Var) {
	sparseOnce.Do(func() {
		const n, used = 1 << 20, 300
		s := formula.NewSpace()
		for i := 0; i < n-used; i++ {
			s.AddBool(0.5)
		}
		for i := 0; i < used; i++ {
			sparseVars = append(sparseVars, s.AddBoolTagged(0.1+0.8*float64(i)/used, sparseTags[i%3]))
		}
		sparseSpace = s
	})
	return sparseSpace, sparseVars
}

// sparseGrid is an unsafe R-S-T grid over the sparse space: clause
// (r_i, s_ij, t_j) for a side×side grid.
func sparseGrid(side int) (*formula.Space, formula.DNF) {
	s, vars := sparseIDs()
	// vars[i] has tag sparseTags[i%3]: pick per relation.
	rel := func(r, k int) formula.Var { return vars[3*k+r] }
	var d formula.DNF
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			d = append(d, formula.MustClause(
				formula.Pos(rel(0, i)), formula.Pos(rel(1, side+i*side+j)), formula.Pos(rel(2, j))))
		}
	}
	return s, d
}

func TestDecomposeMatchesMapOracle(t *testing.T) {
	sc := new(prepScratch)
	check := func(name string, s *formula.Space, d formula.DNF) {
		t.Helper()
		if diff := diffStep(sc, s, d); diff != "" {
			t.Fatalf("%s: %s\n%s", name, diff, d.String(s))
		}
	}

	// Seeded random DNFs: Boolean and multi-valued variables, 0…18
	// relations under sparse tag values, a sprinkling of untagged
	// variables, narrow and wide clauses.
	factored := 0
	for seed := int64(0); seed < 2400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := randdnf.Config{
			Vars: 3 + rng.Intn(20), Clauses: 2 + rng.Intn(24), MaxWidth: 1 + rng.Intn(4),
			MaxDomain: 2 + rng.Intn(3), ForceWidth: rng.Intn(2) == 0,
		}
		s, d := randdnf.Generate(cfg, seed)
		ntags := 1 + int(seed)%7
		if seed%16 == 0 {
			// The oracle tries 2^(n−1) subsets, a map or four each.
			ntags = 1 + int(seed/16)%18
		}
		untagged := formula.Var(-1)
		if seed%7 == 0 {
			untagged = formula.Var(rng.Intn(cfg.Vars))
		}
		s = retag(s, func(v formula.Var) int32 {
			if v == untagged || seed%50 == 49 {
				return formula.NoTag
			}
			return sparseTags[int(v)%ntags]
		})
		check(fmt.Sprintf("random seed %d", seed), s, d)

		// The same space seeds an exact cross product of random
		// per-relation disjunctions, a near-product missing one clause,
		// and a shuffled product (first-seen order ≠ sorted order).
		if ntags < 2 || ntags > 4 || untagged >= 0 || seed%50 == 49 {
			continue
		}
		groups := make([][]formula.Clause, ntags)
		for v := formula.Var(0); int(v) < s.NumVars(); v++ {
			g := int(v) % ntags
			if len(groups[g]) < 3 {
				at := formula.Atom{Var: v, Val: formula.Val(rng.Intn(s.DomainSize(v)))}
				groups[g] = append(groups[g], formula.MustClause(at))
			}
		}
		if rng.Intn(3) == 0 {
			// A clause with no atom on this relation's side of any split.
			groups[0] = append(groups[0], nil)
		}
		p := product(groups...)
		if len(p) < 2 {
			continue // fewer variables than relations
		}
		if parts := refIndependentAndParts(s, p); len(parts) >= 2 {
			factored++
		}
		check(fmt.Sprintf("product seed %d", seed), s, p)
		rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
		check(fmt.Sprintf("shuffled product seed %d", seed), s, p)
		check(fmt.Sprintf("near-product seed %d", seed), s, p[:len(p)-1])
	}
	if factored < 100 {
		t.Fatalf("only %d generated products factorized: the ⊙ success path is under-tested", factored)
	}

	// Hand-built shapes over sparse tags.
	s := formula.NewSpace()
	var rel [4][]formula.Var
	for i := 0; i < 12; i++ {
		g := i % 4
		if i%2 == 0 {
			rel[g] = append(rel[g], s.AddBoolTagged(0.3, sparseTags[g]))
		} else {
			rel[g] = append(rel[g], s.AddVarTagged(sparseTags[g], 0.2, 0.3, 0.5)) // BID-style block
		}
	}
	two := product(posClauses(rel[0]...), posClauses(rel[1]...))
	three := product(posClauses(rel[3]...), posClauses(rel[0][:2]...), posClauses(rel[2]...))
	check("2-way product", s, two)
	check("3-way product", s, three)
	check("2-way product missing its last clause", s, two[:len(two)-1])
	check("3-way product missing a middle clause", s, append(three[:4:4], three[5:]...))
	check("product of a 2-relation block and a relation", s,
		product(formula.DNF{
			formula.MustClause(formula.Pos(rel[0][0]), formula.Pos(rel[1][0])),
			formula.MustClause(formula.Pos(rel[0][1]), formula.Pos(rel[1][1])),
		}, posClauses(rel[2]...)))
	check("multi-valued product", s, product(
		[]formula.Clause{
			formula.MustClause(formula.Atom{Var: rel[1][0], Val: 0}),
			formula.MustClause(formula.Atom{Var: rel[1][0], Val: 2}),
		},
		[]formula.Clause{
			formula.MustClause(formula.Atom{Var: rel[3][0], Val: 1}),
			formula.MustClause(formula.Atom{Var: rel[3][2], Val: 1}),
		}))
	check("empty projection on one side", s, product(
		[]formula.Clause{nil, formula.MustClause(formula.Pos(rel[0][0]))}, posClauses(rel[1]...)))
	check("single clause", s, two[:1])
	check("true", s, formula.DNF{nil})

	// Exactly maxFactorTags relations factor; one more is out of range
	// for ⊙ but not for Lemma 6.8.
	for _, n := range []int{maxFactorTags, maxFactorTags + 1, maxFactorTags + 2} {
		ws := formula.NewSpace()
		groups := make([][]formula.Clause, n)
		for g := range groups {
			groups[g] = posClauses(ws.AddBoolTagged(0.5, sparseTags[g]))
		}
		groups[n-1] = append(groups[n-1], formula.MustClause(formula.Pos(ws.AddBoolTagged(0.5, sparseTags[n-1]))))
		check(fmt.Sprintf("%d relations", n), ws, product(groups...))
	}

	// Sparse ids: the scan is sized by the fragment's largest id.
	ss, grid := sparseGrid(6)
	check("sparse-id grid", ss, grid)
	_, vars := sparseIDs()
	check("sparse-id product", ss, product(posClauses(vars[0], vars[3]), posClauses(vars[1], vars[4]), posClauses(vars[2])))
}

// TestMostFrequentVarTieIsSmallestID: equal-count variables met in
// descending-id order still yield the smallest id.
func TestMostFrequentVarTieIsSmallestID(t *testing.T) {
	s := formula.NewSpace()
	x, y, z := s.AddBool(0.5), s.AddBool(0.5), s.AddBool(0.5)
	d := formula.DNF{
		formula.MustClause(formula.Pos(z)),
		formula.MustClause(formula.Pos(y)),
		formula.MustClause(formula.Pos(x)),
	}
	if got := kernelMostFrequentVar(s, d); got != x {
		t.Fatalf("chose x%d, want x%d", got, x)
	}
	if got := kernelVar(s, d); got != x { // untagged: Lemma 6.8 does not apply
		t.Fatalf("chooseVar chose x%d, want x%d", got, x)
	}
}

// TestIQVariableTieIsSmallestID: on a complete bipartite lineage every
// variable satisfies Lemma 6.8 with the same occurrence count; the
// smallest id wins whatever order the clauses come in.
func TestIQVariableTieIsSmallestID(t *testing.T) {
	s := formula.NewSpace()
	r0, s0 := s.AddBoolTagged(0.5, 7), s.AddBoolTagged(0.5, -3)
	r1, s1 := s.AddBoolTagged(0.5, 7), s.AddBoolTagged(0.5, -3)
	d := formula.DNF{
		formula.MustClause(formula.Pos(r1), formula.Pos(s1)),
		formula.MustClause(formula.Pos(r1), formula.Pos(s0)),
		formula.MustClause(formula.Pos(r0), formula.Pos(s1)),
		formula.MustClause(formula.Pos(r0), formula.Pos(s0)),
	}
	if got, ok := kernelIQVar(s, d); !ok || got != r0 {
		t.Fatalf("chose (x%d, %v), want x%d", got, ok, r0)
	}
	// With one more s-variable only the r's qualify (2 < 3 occurrences
	// short for the s's); r0 and r1 tie.
	s2 := s.AddBoolTagged(0.5, -3)
	d = append(d,
		formula.MustClause(formula.Pos(r1), formula.Pos(s2)),
		formula.MustClause(formula.Pos(r0), formula.Pos(s2)))
	if got, ok := kernelIQVar(s, d); !ok || got != r0 {
		t.Fatalf("chose (x%d, %v), want x%d", got, ok, r0)
	}
}

// TestFactorPartsInFirstSeenOrder: parts are ordered by their smallest
// tag, clauses within a part by first appearance in d — not by id.
func TestFactorPartsInFirstSeenOrder(t *testing.T) {
	s := formula.NewSpace()
	u0, u1 := s.AddBoolTagged(0.5, 9), s.AddBoolTagged(0.5, 9) // larger tag, smaller ids
	x0, x1 := s.AddBoolTagged(0.5, 4), s.AddBoolTagged(0.5, 4)
	d := formula.DNF{
		formula.MustClause(formula.Pos(x1), formula.Pos(u1)),
		formula.MustClause(formula.Pos(x1), formula.Pos(u0)),
		formula.MustClause(formula.Pos(x0), formula.Pos(u1)),
		formula.MustClause(formula.Pos(x0), formula.Pos(u0)),
	}
	parts := kernelParts(s, d)
	want := []formula.DNF{
		{formula.MustClause(formula.Pos(x1)), formula.MustClause(formula.Pos(x0))},
		{formula.MustClause(formula.Pos(u1)), formula.MustClause(formula.Pos(u0))},
	}
	if len(parts) != len(want) {
		t.Fatalf("%d parts, want %d", len(parts), len(want))
	}
	for i := range want {
		if !parts[i].Equal(want[i]) {
			t.Errorf("part %d = %s, want %s", i, parts[i].String(s), want[i].String(s))
		}
	}
}

// FuzzDecomposeMatchesOracle decodes bytes into a small tagged DNF and
// compares the kernels with the map oracle. The scratch is shared
// across inputs, and before each one its counter is set a few epochs
// short of the wrap, at a distance taken from the input, so that on
// most inputs the wrap falls among the checks.
func FuzzDecomposeMatchesOracle(f *testing.F) {
	f.Add([]byte{4, 2, 0, 1, 0, 1, 1, 0, 2, 1, 0, 3, 1, 1, 2, 1, 1, 3})                // 2×2 product
	f.Add([]byte{6, 3, 0, 1, 2, 0, 1, 2, 2, 0, 1, 2, 1, 3, 2, 3, 4, 2, 0, 5, 2, 1, 5}) // R-S-T chain
	f.Add([]byte{3, 1, 0, 0, 0, 0, 0, 0, 1, 0, 2})                                     // one relation
	f.Add([]byte{5, 17, 1, 2, 3, 4, 5, 3, 0, 1, 2, 3, 1, 2, 3, 4})                     // an untagged variable
	f.Add([]byte("the quick brown fox jumps over the lazy dog"))
	sc := new(prepScratch)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, d := decodeTaggedDNF(data)
		if len(d) == 0 {
			t.Skip()
		}
		nearWrap(sc, wrapDistance(data))
		if diff := diffStep(sc, s, d); diff != "" {
			t.Fatalf("%s\n%s", diff, d.String(s))
		}
	})
}

// decodeTaggedDNF reads: variable count, tag-palette size, one byte per
// variable (palette index; every 17th value is untagged; the high bit
// makes it three-valued), then clauses as a width byte followed by
// (variable, value) pairs until the input runs out.
func decodeTaggedDNF(data []byte) (*formula.Space, formula.DNF) {
	next := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return b, true
	}
	nb, _ := next()
	pb, _ := next()
	nvars, palette := 1+int(nb)%16, 1+int(pb)%len(sparseTags)
	s := formula.NewSpace()
	for i := 0; i < nvars; i++ {
		b, _ := next()
		dist := []float64{0.5, 0.5}
		if b&0x80 != 0 {
			dist = []float64{0.2, 0.3, 0.5}
		}
		if b&0x7f%17 == 16 {
			s.AddVar(dist...)
		} else {
			s.AddVarTagged(sparseTags[int(b&0x7f)%palette], dist...)
		}
	}
	var d formula.DNF
	for len(d) < 64 {
		wb, ok := next()
		if !ok {
			break
		}
		var atoms []formula.Atom
		for i := 0; i <= int(wb)%4; i++ {
			vb, _ := next()
			ab, _ := next()
			v := formula.Var(int(vb) % nvars)
			atoms = append(atoms, formula.Atom{Var: v, Val: formula.Val(int(ab) % s.DomainSize(v))})
		}
		if c, ok := formula.NewClause(atoms...); ok {
			d = append(d, c)
		}
	}
	return s, d.Normalize()
}

// rstGrid is the benchmark's hard_rst shape: clause (x_i, e_ij, y_j)
// for a full side×side grid under the benchmark's tags.
func rstGrid(side int) (*formula.Space, formula.DNF) {
	s := formula.NewSpace()
	xs, ys := make([]formula.Var, side), make([]formula.Var, side)
	for i := range xs {
		xs[i] = s.AddBoolTagged(0.3+0.05*float64(i), 200)
	}
	for j := range ys {
		ys[j] = s.AddBoolTagged(0.4+0.05*float64(j), 201)
	}
	var d formula.DNF
	for i := range xs {
		for j := range ys {
			e := s.AddBoolTagged(0.05+0.01*float64(i+j), 202)
			d = append(d, formula.MustClause(formula.Pos(xs[i]), formula.Pos(e), formula.Pos(ys[j])))
		}
	}
	return s, d
}

// TestDecompositionStepAllocations is the machine-independent form of
// the step's cost claim: after one warm-up call the ⊕ choice and a
// failing ⊙ probe allocate nothing, on dense ids and on a fragment that
// uses the last few hundred of 2²⁰ variables alike.
func TestDecompositionStepAllocations(t *testing.T) {
	s, d := rstGrid(6)
	ss, sd := sparseGrid(6)
	for _, tc := range []struct {
		name string
		s    *formula.Space
		d    formula.DNF
	}{{"6×6 grid", s, d}, {"sparse-id 6×6 grid", ss, sd}} {
		sc := new(prepScratch)
		var x formula.Var
		choose := func() {
			sc.scanVars(tc.s, tc.d, maxVar(tc.d))
			x = chooseVar(tc.d, sc)
		}
		choose()
		if n := testing.AllocsPerRun(50, choose); n != 0 {
			t.Errorf("%s: chooseVar allocates %v per call, want 0", tc.name, n)
		}
		if want := refChooseVar(tc.s, tc.d); x != want {
			t.Errorf("%s: chose x%d, oracle x%d", tc.name, x, want)
		}
		var parts []formula.DNF
		probe := func() {
			sc.scanVars(tc.s, tc.d, maxVar(tc.d))
			parts = independentAndParts(tc.d, sc)
		}
		probe()
		if n := testing.AllocsPerRun(50, probe); n != 0 || parts != nil {
			t.Errorf("%s: failing ⊙ probe allocates %v per call (parts %v), want 0 and none", tc.name, n, parts)
		}
	}
}

// TestRefinerStepAllocationsWarm pins what one Refiner.Step(1) on the
// 6×6 grid allocates when every fragment it prepares is already in the
// FragCache — the production serving path. The root's decomposition is
// a recorded decision by then, so the step replays it and allocates only
// what grows: the children's node block and the open-leaf heap (which
// held the root alone, in the Refiner). The child list is the
// decision's own, and the nodes point at its entries; 3 while the
// Refiner copied each child into a buffer of its own, grown on its
// first step.
func TestRefinerStepAllocationsWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	s, d := rstGrid(6)
	opt := Options{Eps: 1e-9, Frags: formula.NewFragCache(0)}
	ctx := context.Background()
	warm := NewRefiner(ctx, s, d, opt)
	warm.Step(1)
	const runs = 20
	rs := make([]*Refiner, runs+1) // AllocsPerRun calls once more to warm up
	for i := range rs {
		rs[i] = NewRefiner(ctx, s, d, opt)
	}
	i := 0
	n := testing.AllocsPerRun(runs, func() {
		rs[i].Step(1)
		i++
	})
	if n != 2 {
		t.Fatalf("warm Refiner.Step(1) allocates %v, want 2", n)
	}
}

// TestRefinerStepAllocationsCold pins the first Refiner.Step(1) on the
// 6×6 grid over a cache that holds only the root. Of its 8
// allocations, the ⊕ step makes 3: the children's clause block, the
// atom block of the clauses it shortened, and the weights. The step's
// child list is the scratch's, and neither child allocates in
// preparation: no clause is subsumed, so RemoveSubsumed returns its
// input. The children's cache entries are one block of slots (1), the
// list of them decompose returns, which the recorded decision keeps as
// its Children, and the decision make 2, and the two growths the warm
// pin lists make the rest. The cache's table allocates nothing here:
// its first growth made room for eight entries. It was 9 while the
// Refiner copied each child into a buffer of its own.
func TestRefinerStepAllocationsCold(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	s, d := rstGrid(6)
	ctx := context.Background()
	NewRefiner(ctx, s, d, Options{Eps: 1e-9}).Step(1) // size the pooled scratch
	const runs = 20
	rs := make([]*Refiner, runs+1) // AllocsPerRun calls once more to warm up
	for i := range rs {
		rs[i] = NewRefiner(ctx, s, d, Options{Eps: 1e-9, Frags: formula.NewFragCache(0)})
	}
	i := 0
	n := testing.AllocsPerRun(runs, func() {
		rs[i].Step(1)
		i++
	})
	if n != 8 {
		t.Fatalf("cold Refiner.Step(1) allocates %v, want 8", n)
	}
}

// TestUncachedEvaluationAllocations pins what one ε = 0.01 evaluation
// of the 6×6 grid allocates without a fragment cache (Frags nil) — the
// path of cmd/dtree, the examples and the figure harness with its cache
// off. Every prepared fragment lives in a slot: the root in one of its
// own, each decomposition's children in one block, with a list of
// pointers to them. The Refiner holds its state by value, so the two
// are one allocation. The depth-first exploration with leaf closing
// that ApproxCtx ran before it was a Refiner allocated 978.
func TestUncachedEvaluationAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	s, d := rstGrid(6)
	ctx := context.Background()
	opt := Options{Eps: 0.01}
	ApproxCtx(ctx, s, d, opt) // size the pooled scratch
	n := testing.AllocsPerRun(20, func() {
		if _, err := ApproxCtx(ctx, s, d, opt); err != nil {
			t.Fatal(err)
		}
	})
	if n != 564 {
		t.Errorf("uncached ApproxCtx allocates %v, want 564", n)
	}
}
