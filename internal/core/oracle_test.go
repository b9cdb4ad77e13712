package core

import (
	"math/bits"
	"slices"
	"sort"

	"repro/internal/formula"
)

// The oracle: the map-based ⊙/⊕ analysis exactly as it ran before the
// array kernels of factor.go and varorder.go replaced it — one
// map[int32]bool per tag subset, four map[uint64][]int per split, and
// map[Var]int occurrence counts — moved here verbatim, identifiers
// prefixed with ref. The kernels must return the same parts (clause
// for clause, in order) and the same Shannon variable: child order
// fixes multiplication order, hence the last ulp of every bound, the
// node counts and the ranking step counts.

// refChooseVar is chooseVar over the map-based rules.
func refChooseVar(s *formula.Space, d formula.DNF, order VarOrder) formula.Var {
	if order == OrderAuto {
		if v, ok := refIqVariable(s, d); ok {
			return v
		}
	}
	return refMostFrequentVar(d)
}

// refIndependentAndParts attempts the ⊙ decomposition of Figure 1: partition
// d into pairwise-independent DNFs Φ1..Φk with d ≡ Φ1 ∧ ... ∧ Φk.
//
// For relational encodings of DNFs (each variable tagged with the relation
// it annotates) the factorization is unique [22]; we search it by grouping
// variables by relation tag and testing, for tag subsets S, whether the
// projections of the clauses onto S and its complement form an exact
// cross product. It returns nil when no factorization exists (including
// when variables are untagged).
func refIndependentAndParts(s *formula.Space, d formula.DNF) []formula.DNF {
	if len(d) < 2 {
		return nil
	}
	tagSet := make(map[int32]struct{})
	for _, c := range d {
		for _, a := range c {
			tag := s.Tag(a.Var)
			if tag == formula.NoTag {
				return nil
			}
			tagSet[tag] = struct{}{}
		}
	}
	if len(tagSet) < 2 || len(tagSet) > maxFactorTags {
		return nil
	}
	tags := make([]int32, 0, len(tagSet))
	for t := range tagSet {
		tags = append(tags, t)
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })

	parts := refFactorRec(s, d, tags)
	if len(parts) < 2 {
		return nil
	}
	return parts
}

// refFactorRec factorizes d (whose variables span exactly the given tags)
// into maximally many independent conjuncts, returning a single-element
// slice if d is not factorizable.
func refFactorRec(s *formula.Space, d formula.DNF, tags []int32) []formula.DNF {
	if len(tags) < 2 {
		return []formula.DNF{d}
	}
	// Enumerate proper subsets S of tags that contain tags[0] (fixing the
	// first tag halves the search and avoids mirror splits), smallest
	// subsets first so single relations split off eagerly.
	n := len(tags)
	type split struct {
		mask int
		bits int
	}
	splits := make([]split, 0, 1<<(n-1))
	for mask := 1; mask < 1<<n; mask += 2 { // bit 0 always set
		if mask == (1<<n)-1 {
			continue // improper
		}
		splits = append(splits, split{mask, bits.OnesCount(uint(mask))})
	}
	sort.Slice(splits, func(i, j int) bool {
		if splits[i].bits != splits[j].bits {
			return splits[i].bits < splits[j].bits
		}
		return splits[i].mask < splits[j].mask
	})
	for _, sp := range splits {
		inS := make(map[int32]bool, n)
		for b := 0; b < n; b++ {
			if sp.mask&(1<<b) != 0 {
				inS[tags[b]] = true
			}
		}
		a, b, ok := refTrysplit(s, d, inS)
		if !ok {
			continue
		}
		var sTags, cTags []int32
		for _, t := range tags {
			if inS[t] {
				sTags = append(sTags, t)
			} else {
				cTags = append(cTags, t)
			}
		}
		out := refFactorRec(s, a, sTags)
		out = append(out, refFactorRec(s, b, cTags)...)
		return out
	}
	return []formula.DNF{d}
}

// refTrysplit tests whether d ≡ (∨ A) ∧ (∨ B) where A and B are the distinct
// projections of d's clauses onto the tags in inS and its complement. The
// test is the exact-cross-product check: the number of distinct
// (projection, co-projection) pairs must equal |A|·|B|; since the pairs
// are a subset of A×B and clauses are distinct, equality of counts implies
// the pair set is all of A×B.
func refTrysplit(s *formula.Space, d formula.DNF, inS map[int32]bool) (a, b formula.DNF, ok bool) {
	// Since d is duplicate-free, distinct clauses yield distinct
	// (projection, co-projection) pairs, so |pairs| = |d| and the exact
	// cross-product condition |pairs| = |A|·|B| reduces to
	// |A|·|B| = |d|. Count the distinct projections of both sides in one
	// pass with order-independent hashing (collisions resolved by
	// structural comparison against a representative clause),
	// materializing nothing on the common failure path. Both counts only
	// grow, so the scan aborts as soon as their product exceeds |d|.
	repsA := make(map[uint64][]int, 16)
	repsB := make(map[uint64][]int, 16)
	nA, nB := 0, 0
	for ci, c := range d {
		var hA, hB uint64 = 0x5bd1e995, 0x5bd1e995
		wA, wB := 0, 0
		for _, at := range c {
			if inS[s.Tag(at.Var)] {
				hA ^= formula.AtomHash(at)
				wA++
			} else {
				hB ^= formula.AtomHash(at)
				wB++
			}
		}
		hA += uint64(wA) * 0x100000001b3
		hB += uint64(wB) * 0x100000001b3
		if refAddProjectionRep(s, d, repsA, hA, ci, inS, true) {
			nA++
		}
		if refAddProjectionRep(s, d, repsB, hB, ci, inS, false) {
			nB++
		}
		if nA*nB > len(d) {
			return nil, nil, false
		}
	}
	if nA*nB != len(d) {
		return nil, nil, false
	}

	var aParts, bParts []formula.Clause
	aKeys := make(map[uint64][]int, nA)
	bKeys := make(map[uint64][]int, nB)
	intern := func(c formula.Clause, keys map[uint64][]int, parts *[]formula.Clause) {
		h := c.Hash()
		for _, i := range keys[h] {
			if (*parts)[i].Equal(c) {
				return
			}
		}
		keys[h] = append(keys[h], len(*parts))
		*parts = append(*parts, c)
	}
	for _, c := range d {
		var ca, cb formula.Clause
		for _, at := range c {
			if inS[s.Tag(at.Var)] {
				ca = append(ca, at)
			} else {
				cb = append(cb, at)
			}
		}
		intern(ca, aKeys, &aParts)
		intern(cb, bKeys, &bParts)
	}
	return formula.DNF(aParts), formula.DNF(bParts), true
}

// refAddProjectionRep records clause ci as a representative of its
// projection hash if no existing representative has an equal projection;
// it reports whether a new distinct projection was added.
func refAddProjectionRep(s *formula.Space, d formula.DNF, reps map[uint64][]int, h uint64, ci int, inS map[int32]bool, side bool) bool {
	for _, ri := range reps[h] {
		if refProjEqual(s, d[ci], d[ri], inS, side) {
			return false
		}
	}
	reps[h] = append(reps[h], ci)
	return true
}

// refProjEqual compares the projections of c1 and c2 onto the side's tags
// without materializing them.
func refProjEqual(s *formula.Space, c1, c2 formula.Clause, inS map[int32]bool, side bool) bool {
	i, j := 0, 0
	for {
		for i < len(c1) && inS[s.Tag(c1[i].Var)] != side {
			i++
		}
		for j < len(c2) && inS[s.Tag(c2[j].Var)] != side {
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

// refMostFrequentVar returns a variable occurring in the most clauses of d.
func refMostFrequentVar(d formula.DNF) formula.Var {
	counts := make(map[formula.Var]int)
	for _, c := range d {
		for _, a := range c {
			counts[a.Var]++
		}
	}
	best := formula.Var(-1)
	bestN := -1
	for v, n := range counts {
		if n > bestN || (n == bestN && v < best) {
			best, bestN = v, n
		}
	}
	return best
}

// refIqVariable implements the variable choice of Lemma 6.8 for DNFs of IQ
// queries: it looks for a variable v from relation Ri that occurs in
// clauses of Φ together with all variables of every other relation Rj.
// Eliminating such a variable first makes its co-factor subsume Φ|v, which
// is what keeps the d-tree polynomial for IQ queries (Theorem 6.9).
//
// Following the paper, it counts the distinct variables per relation in Φ,
// then redoes the count restricted to clauses containing a candidate x; if
// the restricted counts match the unrestricted ones for every relation
// other than x's own, x is chosen. Candidates are tried in descending
// frequency so the successful variable (which by construction co-occurs
// with many variables) is found early.
func refIqVariable(s *formula.Space, d formula.DNF) (formula.Var, bool) {
	// Total distinct-variable counts per tag; bail out if any variable is
	// untagged or only one relation is present (the rule needs >= 2).
	total := make(map[int32]int)
	seen := make(map[formula.Var]int32)
	occ := make(map[formula.Var]int)
	for _, c := range d {
		for _, a := range c {
			occ[a.Var]++
			if _, ok := seen[a.Var]; ok {
				continue
			}
			tag := s.Tag(a.Var)
			if tag == formula.NoTag {
				return 0, false
			}
			seen[a.Var] = tag
			total[tag]++
		}
	}
	if len(total) < 2 {
		return 0, false
	}

	candidates := make([]formula.Var, 0, len(seen))
	for v := range seen {
		candidates = append(candidates, v)
	}
	sort.Slice(candidates, func(i, j int) bool {
		a, b := candidates[i], candidates[j]
		if occ[a] != occ[b] {
			return occ[a] > occ[b]
		}
		return a < b
	})

	restricted := make(map[int32]map[formula.Var]struct{}, len(total))
	for _, x := range candidates {
		// A variable co-occurring with all others must appear in at least
		// as many clauses as the largest other relation has variables; a
		// cheap necessary condition that prunes most candidates.
		maxOther := 0
		for tag, n := range total {
			if tag != seen[x] && n > maxOther {
				maxOther = n
			}
		}
		if occ[x] < maxOther {
			continue
		}
		for tag := range total {
			if m := restricted[tag]; m != nil {
				clear(m)
			} else {
				restricted[tag] = make(map[formula.Var]struct{})
			}
		}
		for _, c := range d {
			if _, ok := c.Lookup(x); !ok {
				continue
			}
			for _, a := range c {
				restricted[seen[a.Var]][a.Var] = struct{}{}
			}
		}
		ok := true
		for tag, n := range total {
			if tag == seen[x] {
				continue
			}
			if len(restricted[tag]) != n {
				ok = false
				break
			}
		}
		if ok {
			return x, true
		}
	}
	return 0, false
}

// refLeafOrder is Figure 3's clause order as leafBounds computed it
// before the radix-keyed sort: a stable sort of the clause indices,
// descending on probability, through a comparator that chases probs.
func refLeafOrder(probs []float64) []int {
	order := make([]int, len(probs))
	for i := range order {
		order[i] = i
	}
	// A stable sort's output is uniquely determined, so swapping the
	// sort implementation cannot reorder equal-probability clauses.
	slices.SortStableFunc(order, func(a, b int) int {
		switch {
		case probs[a] > probs[b]:
			return -1
		case probs[a] < probs[b]:
			return 1
		}
		return 0
	})
	return order
}
