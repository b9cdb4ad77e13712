package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/formula"
)

// nearWrap moves sc's epoch counter k epochs short of the wrap, so that
// its (k+1)-th request from here wraps. The scratch's stamps stay stale:
// every one is at most the counter, and a counter already past the
// target is first taken through the wrap.
func nearWrap(sc *prepScratch, k uint32) {
	for sc.epoch > math.MaxUint32-k {
		sc.epochs(1)
	}
	sc.epoch = math.MaxUint32 - k
}

// wrapDistance is a fuzz input's distance from the wrap for nearWrap:
// below 48, the epochs a small step or leaf takes.
func wrapDistance(data []byte) uint32 {
	sum := uint32(0)
	for _, b := range data {
		sum += uint32(b)
	}
	return sum % 48
}

// wrapCase is one phase of the wraparound workload: it runs on sc and
// describes everything it returns, floats as bits.
type wrapCase struct {
	name string
	run  func(sc *prepScratch) string
}

// wrapCases are a step of each rule of Figure 1 and, last, the leaf
// bounds of a leaf that is not positive, each checked to take the path
// it names.
func wrapCases(t *testing.T) []wrapCase {
	stepCase := func(name string, s *formula.Space, d formula.DNF, want Kind) wrapCase {
		return wrapCase{name, func(sc *prepScratch) string {
			st := newState(context.Background(), s, Options{})
			kind, subs, mult := st.step(d, sc)
			if kind != want {
				t.Fatalf("%s: step took %v, want %v", name, kind, want)
			}
			out := fmt.Sprintf("%v nodes %d children %v weights", kind, st.nodes, subs)
			for _, m := range mult {
				out += fmt.Sprintf(" %x", math.Float64bits(m))
			}
			return out
		}}
	}

	// ⊗: four variable-disjoint chains, interleaved.
	comps := chains(4, 5, false)
	cs := formula.NewSpace()
	for v := formula.Var(0); v <= maxVar(comps); v++ {
		cs.AddBool(0.5)
	}

	// ⊙: R × S × T, each relation's variables in every combination, so
	// the factorization recurses and leadCounts and the projection table
	// run for more than one split.
	ps := formula.NewSpace()
	var rel [3][]formula.Var
	for r := range rel {
		for i := 0; i < 3; i++ {
			rel[r] = append(rel[r], ps.AddBoolTagged(0.2+0.1*float64(i), int32(10*r)))
		}
	}
	var prod formula.DNF
	for _, x := range rel[0] {
		for _, y := range rel[1] {
			for _, z := range rel[2] {
				prod = append(prod, formula.MustClause(formula.Pos(x), formula.Pos(y), formula.Pos(z)))
			}
		}
	}

	// ⊕: inequality-join lineage r_i ∧ s_j for i ≤ j, whose Lemma 6.8
	// candidates iqVariable tests with its marks.
	is := formula.NewSpace()
	var rs, ss []formula.Var
	for i := 0; i < 4; i++ {
		rs = append(rs, is.AddBoolTagged(0.3+0.1*float64(i), 1))
		ss = append(ss, is.AddBoolTagged(0.6-0.1*float64(i), 2))
	}
	var iq formula.DNF
	for i := range rs {
		for _, y := range ss[i:] {
			iq = append(iq, formula.MustClause(formula.Pos(rs[i]), formula.Pos(y)))
		}
	}
	if _, ok := kernelIQVar(is, iq); !ok {
		t.Fatal("Lemma 6.8 finds no variable in the inequality join")
	}

	// A block-independent-disjoint leaf: v_i = a ∧ v_{i+1} = a+1 around a
	// ring of three-valued variables, so no variable has a single value
	// and Figure 3 fills bucket after bucket.
	// A clause over a variable of its own joins the first bucket and is
	// never stamped again: its stamp is the first pass's.
	ls := formula.NewSpace()
	for i := 0; i < 6; i++ {
		ls.AddVar(0.05, 0.1, 0.85)
	}
	leaf := formula.DNF{formula.MustClause(formula.Pos(ls.AddBool(0.5)))}
	for i := 0; i < 6; i++ {
		for a := 0; a < 3; a++ {
			leaf = append(leaf, formula.MustClause(
				formula.Atom{Var: formula.Var(i), Val: formula.Val(a)},
				formula.Atom{Var: formula.Var((i + 1) % 6), Val: formula.Val((a + 1) % 3)}))
		}
	}
	if refPositive(leaf) {
		t.Fatal("the BID leaf is positive")
	}

	return []wrapCase{
		stepCase("⊗ partition", cs, comps, IndepOr),
		stepCase("⊙ factorization", ps, prod, IndepAnd),
		stepCase("⊕ through Lemma 6.8", is, iq, ExclOr),
		{"BID leaf bounds", func(sc *prepScratch) string {
			lo, hi, ops := leafBoundsScratch(ls, leaf, sc)
			return fmt.Sprintf("[%x, %x] ops %d", math.Float64bits(lo), math.Float64bits(hi), ops)
		}},
	}
}

// TestScratchEpochWraparound runs the four phases of wrapCases in turn
// on one scratch whose counter is k epochs short of the wrap, for every
// k up to the epochs the phases take, so the wrap falls on each request
// in turn: within the ⊗ partition, among the ⊙ marks and projection
// tables, among iqVariable's marks, on the leaf's two first-pass epochs
// and inside its bucket loop. Each k runs twice on the same scratch, so
// on the second pass the stamps left by the first are the very epochs
// its requests after the wrap reissue. Every result must equal, bitwise,
// what a fresh scratch computes, and the counter must have wrapped.
func TestScratchEpochWraparound(t *testing.T) {
	cases := wrapCases(t)
	fresh := new(prepScratch)
	want := make([]string, len(cases))
	var bucketFrom uint32
	for i, c := range cases {
		if i == len(cases)-1 { // the leaf: its bucket loop follows the first pass's two epochs
			bucketFrom = fresh.epoch + 2
		}
		want[i] = c.run(fresh)
	}
	total := fresh.epoch
	if total-bucketFrom < 3 {
		t.Fatalf("the leaf's bucket loop takes %d epochs, want at least 3", total-bucketFrom)
	}
	for k := uint32(0); k < total; k++ {
		sc := new(prepScratch)
		for pass := 1; pass <= 2; pass++ {
			nearWrap(sc, k)
			for i, c := range cases {
				if got := c.run(sc); got != want[i] {
					t.Fatalf("pass %d, wrap at request %d of %d: %s:\n got %s\nwant %s", pass, k+1, total, c.name, got, want[i])
				}
			}
			if sc.epoch > total {
				t.Fatalf("pass %d, wrap at request %d of %d: counter at %d, did not wrap", pass, k+1, total, sc.epoch)
			}
		}
	}
}

// TestEpochsWrapClearsEveryStamp: a request that would run past
// MaxUint32 clears every stamp array the scratch owns, over its whole
// capacity, and issues its epochs from 1; a pair is never split across
// the wrap.
func TestEpochsWrapClearsEveryStamp(t *testing.T) {
	sc := new(prepScratch)
	nearWrap(sc, 1<<20) // far enough that the workload does not wrap
	for _, c := range wrapCases(t) {
		c.run(sc)
	}
	stamps := func() (info, st, slots int) {
		for _, vi := range sc.step.info[:cap(sc.step.info)] {
			if vi.stamp != 0 || vi.mark != 0 {
				info++
			}
		}
		for _, s := range sc.st[:cap(sc.st)] {
			if s != 0 {
				st++
			}
		}
		for _, sl := range sc.fact.slots[:cap(sc.fact.slots)] {
			if sl.stamp != 0 {
				slots++
			}
		}
		return info, st, slots
	}
	if info, st, slots := stamps(); info == 0 || st == 0 || slots == 0 {
		t.Fatalf("the workload left %d / %d / %d stamped records, leaf stamps and slots; want some of each", info, st, slots)
	}
	sc.epoch = math.MaxUint32 - 2
	if e := sc.epochs(2); e != math.MaxUint32-1 {
		t.Fatalf("pair below the wrap starts at %d, want %d", e, uint32(math.MaxUint32-1))
	}
	sc.epoch = math.MaxUint32 - 1
	if e := sc.epochs(2); e != 1 || sc.epoch != 2 {
		t.Fatalf("pair across the wrap starts at %d with the counter at %d, want 1 and 2", e, sc.epoch)
	}
	if info, st, slots := stamps(); info != 0 || st != 0 || slots != 0 {
		t.Fatalf("after the wrap %d / %d / %d stamped records, leaf stamps and slots remain", info, st, slots)
	}
}
