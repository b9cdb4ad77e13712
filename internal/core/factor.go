package core

import (
	"math"
	"math/bits"

	"repro/internal/formula"
)

// maxFactorTags bounds the subset enumeration in independent-and
// factorization. Lineage of conjunctive queries has one tag per joined
// relation, so real workloads stay far below this. It also lets a tag
// subset be a bitmask.
const maxFactorTags = 16

// factorScratch is the ⊙ half of the decomposition-step scratch: the
// projection table of trysplit and the bookkeeping that outlives one
// split test. Each split test stamps the table with a fresh epoch of
// the scratch's one counter (prepScratch.epochs).
type factorScratch struct {
	// rank[i] is the position of stepScan.tags[i] in ascending tag
	// order: subsets are bitmasks over ranks, because the enumeration
	// order — hence the order of the parts — is defined on sorted tags.
	rank [maxFactorTags]uint8

	// Open-addressing table of projections, one slot per distinct
	// (side, projection): the hash sits beside the reference so probes
	// compare it before touching a clause, and slots are validated by
	// the epoch of the split under test, so the table is never cleared.
	slots []projSlot
	stamp uint32

	// Representatives of the distinct projections of the split under
	// test, per side, in first-seen order.
	repsA, repsB []int32
}

type projSlot struct {
	hash  uint64
	ref   int32 // clause index<<1 | side
	stamp uint32
}

// independentAndParts attempts the ⊙ decomposition of Figure 1: partition
// d into pairwise-independent DNFs Φ1..Φk with d ≡ Φ1 ∧ ... ∧ Φk.
//
// For relational encodings of DNFs (each variable tagged with the relation
// it annotates) the factorization is unique [22]; we search it by grouping
// variables by relation tag and testing, for tag subsets S, whether the
// projections of the clauses onto S and its complement form an exact
// cross product. It returns nil when no factorization exists, when a
// variable is untagged, and when d spans fewer than two or more than
// maxFactorTags relations. d is the fragment sc.scanVars last scanned.
//
// The factorization is unique as a set; the order of the parts is fixed
// by the search — subsets holding the smallest tag, fewest tags first,
// then ascending — and each part lists its clauses in first-seen order.
// Both orders reach the caller's arithmetic (child order is
// multiplication order), so they are part of the contract. The parts
// are fresh; the list holding them is sc.subs, valid until sc's next
// step.
func independentAndParts(d formula.DNF, sc *prepScratch) []formula.DNF {
	st := &sc.step
	n := len(st.tags)
	if len(d) < 2 || st.untagged || n < 2 || n > maxFactorTags {
		return nil
	}
	for i, t := range st.tags {
		r := uint8(0)
		for _, u := range st.tags {
			if u < t {
				r++
			}
		}
		sc.fact.rank[i] = r
	}
	full := uint32(1)<<n - 1
	a, b, sub, ok := sc.split(d, full)
	if !ok {
		return nil
	}
	parts := sc.factorRec(a, sub, sc.subs[:0])
	sc.subs = sc.factorRec(b, full&^sub, parts)
	return sc.subs
}

// factorRec factorizes d (whose variables span exactly the tags of
// mask) into maximally many independent conjuncts appended to out; an
// unfactorizable d is appended as is.
func (sc *prepScratch) factorRec(d formula.DNF, mask uint32, out []formula.DNF) []formula.DNF {
	if a, b, sub, ok := sc.split(d, mask); ok {
		out = sc.factorRec(a, sub, out)
		return sc.factorRec(b, mask&^sub, out)
	}
	return append(out, d)
}

// split finds the first subset sub of the tags of mask, in search
// order, with d ≡ (∨ a) ∧ (∨ b) for the projections a, b of d onto sub
// and onto the rest of mask.
func (sc *prepScratch) split(d formula.DNF, mask uint32) (a, b formula.DNF, sub uint32, ok bool) {
	n := bits.OnesCount32(mask)
	if n < 2 {
		return nil, nil, 0, false
	}
	// A split needs |a|·|b| = |d|, and |a| is at least the number of
	// distinct projections onto any single tag of its side, which in
	// turn is at least the number of distinct variables leading such a
	// projection. Those counts cost one stamped pass, reject most
	// subsets before any projection is hashed, and reject all of them as
	// soon as the largest count times the smallest exceeds |d| — the
	// usual fate of a fragment that is about to be Shannon-expanded.
	var lead [maxFactorTags]int
	if !sc.leadCounts(d, mask, &lead) {
		return nil, nil, 0, false
	}
	// Enumerate proper subsets of the tags that contain the smallest
	// one (fixing it halves the search and avoids mirror splits),
	// smallest subsets first so single relations split off eagerly,
	// equal sizes in ascending order.
	for k := 1; k < n; k++ {
		for g := uint32(1)<<(k-1) - 1; g < 1<<(n-1); g = nextCombination(g) {
			sub = deposit(g<<1|1, mask)
			if maxLead(&lead, sub)*maxLead(&lead, mask&^sub) <= len(d) {
				if a, b, ok = sc.trysplit(d, sub); ok {
					return a, b, sub, true
				}
			}
			if g == 0 {
				break
			}
		}
	}
	return nil, nil, 0, false
}

// nextCombination returns the next larger integer with as many set bits
// as g > 0 (Gosper's hack).
func nextCombination(g uint32) uint32 {
	c := g & -g
	r := g + c
	return (r^g)>>2/c | r
}

// deposit spreads the low bits of sub over the set bits of mask, lowest
// first, so subsets of a tag set are enumerated in its own bit order.
func deposit(sub, mask uint32) uint32 {
	var out uint32
	for ; sub != 0; sub >>= 1 {
		low := mask & -mask
		if sub&1 != 0 {
			out |= low
		}
		mask &^= low
	}
	return out
}

// leadCounts sets lead[r], for every tag rank r of mask, to the number
// of distinct variables that are the first of their tag in some clause
// of d. It stops and reports false once no subset of mask can split d.
func (sc *prepScratch) leadCounts(d formula.DNF, mask uint32, lead *[maxFactorTags]int) bool {
	info, rank := sc.step.info, &sc.fact.rank
	e := sc.epochs(1)
	for _, c := range d {
		var seen uint32
		grew := false
		for _, a := range c {
			vi := &info[a.Var]
			r := rank[vi.tag]
			if seen>>r&1 != 0 {
				continue
			}
			seen |= 1 << r
			if vi.mark != e {
				vi.mark = e
				lead[r]++
				grew = true
			}
		}
		if grew {
			lo, hi := math.MaxInt, 0
			for m := mask; m != 0; m &= m - 1 {
				n := lead[bits.TrailingZeros32(m)]
				lo, hi = min(lo, n), max(hi, n)
			}
			if lo*hi > len(d) {
				return false
			}
		}
	}
	return true
}

// maxLead returns the largest lead count among the tag ranks of sub.
func maxLead(lead *[maxFactorTags]int, sub uint32) int {
	m := 0
	for ; sub != 0; sub &= sub - 1 {
		m = max(m, lead[bits.TrailingZeros32(sub)])
	}
	return m
}

// trysplit tests whether d ≡ (∨ A) ∧ (∨ B) where A and B are the distinct
// projections of d's clauses onto the tags of sub and its complement. The
// test is the exact-cross-product check: the number of distinct
// (projection, co-projection) pairs must equal |A|·|B|; since the pairs
// are a subset of A×B and clauses are distinct, equality of counts implies
// the pair set is all of A×B.
func (sc *prepScratch) trysplit(d formula.DNF, sub uint32) (a, b formula.DNF, ok bool) {
	// Since d is duplicate-free, distinct clauses yield distinct
	// (projection, co-projection) pairs, so |pairs| = |d| and the exact
	// cross-product condition |pairs| = |A|·|B| reduces to
	// |A|·|B| = |d|. Count the distinct projections of both sides in one
	// pass with order-independent hashing (collisions resolved by
	// structural comparison against a representative clause),
	// materializing nothing on the common failure path. Both counts only
	// grow, so the scan aborts as soon as their product exceeds |d| —
	// which also bounds the table: it never holds more than |d|+2
	// projections.
	f := &sc.fact
	sc.resetTable(len(d) + 2)
	repsA, repsB := f.repsA[:0], f.repsB[:0]
	for ci, c := range d {
		var hA, hB uint64 = 0x5bd1e995, 0x5bd1e995
		wA, wB := 0, 0
		for _, at := range c {
			if sc.inSide(at, sub, true) {
				hA ^= formula.AtomHash(at)
				wA++
			} else {
				hB ^= formula.AtomHash(at)
				wB++
			}
		}
		hA += uint64(wA) * 0x100000001b3
		hB += uint64(wB) * 0x100000001b3
		if sc.addProjectionRep(d, hA, ci, sub, true) {
			repsA = append(repsA, int32(ci))
		}
		if sc.addProjectionRep(d, hB, ci, sub, false) {
			repsB = append(repsB, int32(ci))
		}
		if len(repsA)*len(repsB) > len(d) {
			break
		}
	}
	f.repsA, f.repsB = repsA, repsB
	if len(repsA)*len(repsB) != len(d) {
		return nil, nil, false
	}
	// The representatives are the distinct projections in first-seen
	// order: projecting them is A and B.
	return sc.project(d, repsA, sub, true), sc.project(d, repsB, sub, false), true
}

// resetTable empties the projection table and sizes it for n entries
// at a load of at most one half, a power of two of at least 16 slots.
func (sc *prepScratch) resetTable(n int) {
	f := &sc.fact
	size := max(16, 1<<bits.Len(uint(2*n-1)))
	f.slots, f.stamp = grow(f.slots, size), sc.epochs(1)
}

// addProjectionRep records clause ci as the representative of its
// projection onto the given side of sub if no recorded clause has an
// equal projection there; it reports whether a new distinct projection
// was added.
func (sc *prepScratch) addProjectionRep(d formula.DNF, h uint64, ci int, sub uint32, side bool) bool {
	f := &sc.fact
	ref := int32(ci) << 1
	if side {
		ref |= 1
		h = ^h // the sides share the table
	}
	mask := uint64(len(f.slots) - 1)
	for slot := h & mask; ; slot = (slot + 1) & mask {
		sl := &f.slots[slot]
		if sl.stamp != f.stamp {
			*sl = projSlot{hash: h, ref: ref, stamp: f.stamp}
			return true
		}
		if sl.hash == h && sl.ref&1 == ref&1 && sc.projEqual(d[ci], d[sl.ref>>1], sub, side) {
			return false
		}
	}
}

// inSide reports whether a's variable belongs to the given side of sub.
func (sc *prepScratch) inSide(a formula.Atom, sub uint32, side bool) bool {
	return (sub>>sc.fact.rank[sc.step.info[a.Var].tag]&1 != 0) == side
}

// projEqual compares the projections of c1 and c2 onto the side's tags
// without materializing them.
func (sc *prepScratch) projEqual(c1, c2 formula.Clause, sub uint32, side bool) bool {
	i, j := 0, 0
	for {
		for i < len(c1) && !sc.inSide(c1[i], sub, side) {
			i++
		}
		for j < len(c2) && !sc.inSide(c2[j], sub, side) {
			j++
		}
		if i >= len(c1) || j >= len(c2) {
			return i >= len(c1) && j >= len(c2)
		}
		if c1[i] != c2[j] {
			return false
		}
		i++
		j++
	}
}

// project materializes the projections of the clauses reps onto the
// side's tags, in order, over one backing array (clauses are immutable;
// capacities are clipped so an append can never reach a neighbour). An
// empty projection is the nil clause.
func (sc *prepScratch) project(d formula.DNF, reps []int32, sub uint32, side bool) formula.DNF {
	n := 0
	for _, ri := range reps {
		for _, at := range d[ri] {
			if sc.inSide(at, sub, side) {
				n++
			}
		}
	}
	atoms := make([]formula.Atom, 0, n)
	out := make(formula.DNF, len(reps))
	for i, ri := range reps {
		start := len(atoms)
		for _, at := range d[ri] {
			if sc.inSide(at, sub, side) {
				atoms = append(atoms, at)
			}
		}
		if len(atoms) > start {
			out[i] = formula.Clause(atoms[start:len(atoms):len(atoms)])
		}
	}
	return out
}
