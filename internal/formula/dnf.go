package formula

import (
	"math/bits"
	"sort"
	"strings"
)

// DNF is a disjunction of clauses, treated as a set: Normalize removes
// duplicates and inconsistent clauses. The empty DNF is the formula
// "false"; a DNF containing the empty clause is "true".
type DNF []Clause

// NewDNF builds a normalized DNF from clauses: duplicates removed, each
// clause already consistent (build them with NewClause).
func NewDNF(clauses ...Clause) DNF {
	d := make(DNF, len(clauses))
	copy(d, clauses)
	return d.Normalize()
}

// Normalize removes duplicate clauses, preserving first-occurrence
// order. It may return d itself — it does when d has no duplicates, and
// then allocates nothing — so treat the result as read-only. Otherwise
// it allocates the result, once, at the first duplicate.
func (d DNF) Normalize() DNF {
	return d.dedup(false)
}

// Dedup is Normalize compacting d in place: the result is a prefix of
// d's backing array, which the caller must own.
func (d DNF) Dedup() DNF {
	return d.dedup(true)
}

// dedup returns d's first occurrences in order. Up to the first
// duplicate they are d's own prefix, extended without a write; from
// there on they are appended in place (inPlace) or to a fresh copy of
// that prefix.
func (d DNF) dedup(inPlace bool) DNF {
	t := tablePool.Get().(*clauseTable)
	t.reset(len(d))
	out, prefix := d[:0], true
	for _, c := range d {
		h := c.Hash()
		for pos, i := t.next(h, h); ; pos, i = t.next(h, i) {
			if pos < 0 {
				t.put(h, i, len(out))
				if prefix {
					out = out[:len(out)+1]
				} else {
					out = append(out, c)
				}
				break
			}
			if out[pos].Equal(c) {
				if prefix && !inPlace {
					out = append(make(DNF, 0, len(d)-1), out...)
				}
				prefix = false
				break
			}
		}
	}
	tablePool.Put(t)
	return out
}

// IsTrue reports whether d contains the empty clause (d ≡ true).
func (d DNF) IsTrue() bool {
	for _, c := range d {
		if len(c) == 0 {
			return true
		}
	}
	return false
}

// IsFalse reports whether d has no clauses (d ≡ false).
func (d DNF) IsFalse() bool { return len(d) == 0 }

// Vars returns the distinct variables of d in increasing order.
func (d DNF) Vars() []Var {
	set := make(map[Var]struct{})
	for _, c := range d {
		for _, a := range c {
			set[a.Var] = struct{}{}
		}
	}
	out := make([]Var, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RemoveSubsumed returns d with every clause that is subsumed by another
// clause of d removed (step 1 of the compilation algorithm, Figure 1).
// It returns d itself when nothing is subsumed, allocating nothing, so
// treat the result as read-only.
//
// For clauses of bounded width k (k is at most the number of joined
// relations for query lineage) it enumerates the 2^k−2 proper subsets of
// each clause and checks membership in a hash set, which is near-linear.
// Wider clauses fall back to pairwise subset tests.
func (d DNF) RemoveSubsumed() DNF {
	if len(d) <= 1 {
		return d
	}
	const maxEnumWidth = 12
	wide := false
	var widths uint16 // bitmask of clause widths present (width ≤ 15)
	uniform := true
	for _, c := range d {
		if len(c) > maxEnumWidth {
			wide = true
			break
		}
		widths |= 1 << len(c)
		if len(c) != len(d[0]) {
			uniform = false
		}
	}
	if !wide && uniform {
		// All clauses have the same width: a proper subset is strictly
		// shorter, so no clause can subsume another (duplicates were
		// handled by Normalize). This is the common case for join
		// lineage before Shannon expansion.
		return d
	}
	t := tablePool.Get().(*clauseTable)
	defer tablePool.Put(t)
	keep := t.keepFlags(len(d))
	if !wide {
		t.reset(len(d))
		for i, c := range d {
			t.add(c.Hash(), i)
		}
		for i, c := range d {
			keep[i] = !subsetPresent(c, d, t, i, widths)
		}
	} else {
		// Pairwise fallback: sort indices by clause length so that a
		// potential subsumer is visited before the clauses it subsumes.
		order := make([]int, len(d))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return len(d[order[a]]) < len(d[order[b]]) })
		for i := range keep {
			keep[i] = true
		}
		for ai := 0; ai < len(order); ai++ {
			i := order[ai]
			if !keep[i] {
				continue
			}
			for bi := ai + 1; bi < len(order); bi++ {
				j := order[bi]
				if keep[j] && d[i].Subsumes(d[j]) && !d[i].Equal(d[j]) {
					keep[j] = false
				}
			}
		}
	}
	n := 0
	for _, k := range keep {
		if k {
			n++
		}
	}
	if n == len(d) {
		return d
	}
	out := make(DNF, 0, n)
	for i, c := range d {
		if keep[i] {
			out = append(out, c)
		}
	}
	return out
}

// subsetPresent reports whether any proper subset of c = d[self] is a
// clause of d, or an equal clause appears at an earlier index, by
// lookups in t, which indexes all of d in order. Only subset sizes that
// actually occur as clause widths (the widths bitmask) are enumerated,
// via Gosper's hack.
func subsetPresent(c Clause, d DNF, t *clauseTable, self int, widths uint16) bool {
	n := len(c)
	if n == 0 {
		return false
	}
	// The empty clause subsumes everything but is handled by IsTrue
	// short-circuits in the compiler. Subset hashes are built from the
	// atoms' codes.
	var codes [maxEnumWidthAtoms]uint64
	full := uint64(0x5bd1e995) + uint64(n)*0x100000001b3
	for b := 0; b < n; b++ {
		codes[b] = atomCode(c[b])
		full ^= codes[b]
	}
	for r := 1; r < n; r++ {
		if widths&(1<<r) == 0 {
			continue
		}
		base := uint64(0x5bd1e995) + uint64(r)*0x100000001b3
		// Gosper's hack: iterate all n-bit masks with exactly r bits set.
		for mask := (1 << r) - 1; mask < 1<<n; {
			h := base
			for m := mask; m != 0; m &= m - 1 {
				h ^= codes[bits.TrailingZeros32(uint32(m))]
			}
			for pos, i := t.next(h, h); pos >= 0; pos, i = t.next(h, i) {
				if equalsSubset(d[pos], c, mask) {
					return true
				}
			}
			lo := mask & -mask
			up := mask + lo
			mask = (((up ^ mask) >> 2) / lo) | up
		}
	}
	// A duplicate: only the first occurrence stays.
	for pos, i := t.next(full, full); pos >= 0 && pos != self; pos, i = t.next(full, i) {
		if d[pos].Equal(c) {
			return true
		}
	}
	return false
}

// equalsSubset reports whether cand is the subset of base that mask
// selects, without building it.
func equalsSubset(cand, base Clause, mask int) bool {
	j := 0
	for b := 0; b < len(base); b++ {
		if mask&(1<<b) == 0 {
			continue
		}
		if j >= len(cand) || cand[j] != base[b] {
			return false
		}
		j++
	}
	return j == len(cand)
}

const maxEnumWidthAtoms = 12

// Restrict returns d|v=a: clauses inconsistent with v = a removed, the
// atom v = a removed from the remaining clauses (Shannon expansion step).
// The result is not re-normalized; callers that need subsumption removal
// apply it explicitly.
func (d DNF) Restrict(v Var, a Val) DNF {
	out := make(DNF, 0, len(d))
	for _, c := range d {
		if r, ok := c.Restrict(v, a); ok {
			out = append(out, r)
		}
	}
	return out.Normalize()
}

// Select returns the sub-DNF of d with the given clause indices.
func (d DNF) Select(idx []int) DNF {
	out := make(DNF, len(idx))
	for i, j := range idx {
		out[i] = d[j]
	}
	return out
}

// Clone returns a deep-enough copy of d (clause slices are shared; clauses
// are immutable by convention).
func (d DNF) Clone() DNF {
	out := make(DNF, len(d))
	copy(out, d)
	return out
}

// String renders the DNF with the variable names of s.
func (d DNF) String(s *Space) string {
	if len(d) == 0 {
		return "⊥"
	}
	parts := make([]string, len(d))
	for i, c := range d {
		if len(c) > 1 {
			parts[i] = "(" + c.String(s) + ")"
		} else {
			parts[i] = c.String(s)
		}
	}
	return strings.Join(parts, " ∨ ")
}

// Or returns the disjunction of d and e as a normalized DNF.
func (d DNF) Or(e DNF) DNF {
	out := make(DNF, 0, len(d)+len(e))
	out = append(out, d...)
	out = append(out, e...)
	return out.Normalize()
}

// And returns the conjunction of d and e as a normalized DNF (the
// cross-product of clauses, dropping inconsistent combinations).
func (d DNF) And(e DNF) DNF {
	out := make(DNF, 0, len(d)*len(e))
	for _, c := range d {
		for _, k := range e {
			if m, ok := c.Merge(k); ok {
				out = append(out, m)
			}
		}
	}
	return out.Normalize()
}
