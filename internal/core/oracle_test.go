package core

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"slices"
	"sort"
	"testing"

	"repro/internal/formula"
	"repro/internal/randdnf"
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
func refChooseVar(s *formula.Space, d formula.DNF) formula.Var {
	if v, ok := refIqVariable(s, d); ok {
		return v
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

// fig3Bounds is Figure 3 as leafBounds computed it before the Harris
// bound, for every leaf: the greedy partition of all clauses into
// buckets of pairwise-independent clauses, lo the largest bucket
// probability and hi their sum clamped to 1, stopping early once the
// sum reaches 1. It computes each bucket with the same orIndep kernel —
// the old 1 − Π(1 − p) cancels for tiny p (3×3 grid at p = 1e-5: hi
// 8.9928e-15 against P = 9.0e-15) — so the two differ in the rule
// alone: on a leaf that is not positive they agree bitwise, and on a
// positive one the Harris bound is never looser.
func fig3Bounds(s *formula.Space, d formula.DNF, sortClauses bool) (lo, hi float64) {
	switch {
	case d.IsFalse():
		return 0, 0
	case d.IsTrue():
		return 1, 1
	}
	probs := make([]float64, len(d))
	order := make([]int, len(d))
	for i, c := range d {
		probs[i], order[i] = c.Probability(s), i
	}
	if sortClauses {
		order = refLeafOrder(probs)
	}
	used := make([]bool, len(d))
	sum := 0.0
	for remaining, buckets := len(d), 1; remaining > 0; buckets++ {
		bucket := map[formula.Var]bool{}
		bp := 0.0
		for _, i := range order {
			independent := true
			for _, a := range d[i] {
				independent = independent && !bucket[a.Var]
			}
			if used[i] || !independent {
				continue
			}
			for _, a := range d[i] {
				bucket[a.Var] = true
			}
			bp = orIndep(bp, probs[i])
			used[i] = true
			remaining--
		}
		lo = max(lo, bp)
		sum += bp
		if sum >= 1 && buckets >= 2 && remaining > 0 {
			return lo, 1
		}
	}
	return lo, max(lo, min(sum, 1))
}

// refHarris is the Harris bound 1 − Π_c (1 − P(c)) as leafBounds folds
// it: orIndep over the clauses in bucket order.
func refHarris(s *formula.Space, d formula.DNF) float64 {
	probs := make([]float64, len(d))
	for i, c := range d {
		probs[i] = c.Probability(s)
	}
	order := refLeafOrder(probs)
	hi := 0.0
	for _, i := range order {
		hi = orIndep(hi, probs[i])
	}
	return hi
}

// refStar is the star-cover bound of a positive leaf with maps for the
// scratch's records: occurrence counts, each clause's hub (most
// frequent variable, smallest id among equals, found by comparison, not
// by atom order), the product of the clause's other atoms in atom
// order, and per hub, in order of first use, the orIndep fold of those
// products, times P(hub), folded by orIndep.
func refStar(s *formula.Space, d formula.DNF) float64 {
	occ := map[formula.Var]int{}
	for _, c := range d {
		for _, a := range c {
			occ[a.Var]++
		}
	}
	place := map[formula.Var]int{}
	var ps, rests []float64
	for _, c := range d {
		h := c[0]
		for _, a := range c {
			if occ[a.Var] > occ[h.Var] || occ[a.Var] == occ[h.Var] && a.Var < h.Var {
				h = a
			}
		}
		r := 1.0
		for _, a := range c {
			if a.Var != h.Var {
				r *= s.P(a)
			}
		}
		g, ok := place[h.Var]
		if !ok {
			g = len(ps)
			place[h.Var] = g
			ps, rests = append(ps, s.P(h)), append(rests, 0)
		}
		rests[g] = orIndep(rests[g], r)
	}
	star := 0.0
	for g := range ps {
		star = orIndep(star, ps[g]*rests[g])
	}
	return star
}

// refIndependent reports whether the clauses of d share no variable —
// the leaves whose first bucket holds every clause.
func refIndependent(d formula.DNF) bool {
	seen := map[formula.Var]bool{}
	for _, c := range d {
		for _, a := range c {
			if seen[a.Var] {
				return false
			}
		}
		for _, a := range c {
			seen[a.Var] = true
		}
	}
	return true
}

// refPositive reports whether every variable of d occurs with a single
// value — the leaves that get the star-cover bound.
func refPositive(d formula.DNF) bool {
	val := map[formula.Var]formula.Val{}
	for _, c := range d {
		for _, a := range c {
			if v, ok := val[a.Var]; ok && v != a.Val {
				return false
			}
			val[a.Var] = a.Val
		}
	}
	return true
}

// ratProb is P(d) in exact rational arithmetic, the leaf bounds' ground
// truth: it enumerates the possible worlds of d's variables by Shannon
// expansion on the first variable of the first clause — one branch per
// value d gives it, and one for all its other values together — and
// stops a branch once its formula is decided. A branch weighs the atom
// probability as the exact rational of its float64; the other-values
// branch weighs the remainder 1 − Σ, so P is exactly the probability
// the space's atom probabilities define, whatever rounding their
// distribution's sum carries.
func ratProb(s *formula.Space, d formula.DNF) *big.Rat {
	if len(d) == 0 {
		return new(big.Rat)
	}
	for _, c := range d {
		if len(c) == 0 {
			return big.NewRat(1, 1)
		}
	}
	x := d[0][0].Var
	var vals []formula.Val
	for _, c := range d {
		for _, a := range c {
			if a.Var == x && !slices.Contains(vals, a.Val) {
				vals = append(vals, a.Val)
			}
		}
	}
	p, other := new(big.Rat), big.NewRat(1, 1)
	for _, a := range vals {
		w := new(big.Rat).SetFloat64(s.P(formula.Atom{Var: x, Val: a}))
		other.Sub(other, w)
		p.Add(p, w.Mul(w, ratProb(s, ratRestrict(d, x, a))))
	}
	if other.Sign() != 0 {
		p.Add(p, other.Mul(other, ratProb(s, ratRestrict(d, x, -1))))
	}
	return p
}

// ratRestrict is d given x = a, where a = -1 stands for a value no
// clause gives x.
func ratRestrict(d formula.DNF, x formula.Var, a formula.Val) formula.DNF {
	var out formula.DNF
	for _, c := range d {
		r, keep := formula.Clause{}, true
		for _, at := range c {
			switch {
			case at.Var != x:
				r = append(r, at)
			case at.Val != a:
				keep = false
			}
		}
		if keep {
			out = append(out, r)
		}
	}
	return out
}

// leafBudget is LeafBounds' floating-point contract for d as a
// rational: the relative (4n + w)·2⁻⁵³ by which a bound may miss P(d),
// n clauses, the widest w atoms wide.
func leafBudget(d formula.DNF) *big.Rat {
	w := 0
	for _, c := range d {
		w = max(w, len(c))
	}
	return new(big.Rat).SetFrac(big.NewInt(int64(4*len(d)+w)), new(big.Int).Lsh(big.NewInt(1), 53))
}

// checkLeafBounds asserts LeafBounds' contract on d, computed over sc,
// against ratProb: lo ≤ P·(1 + budget) and hi ≥ P·(1 − budget);
// bitwise Figure 3 on a leaf that is not positive; and on a positive one
// lo no higher than Figure 3's, hi never looser than Figure 3's within
// the budget, never above the Harris bound it replaced, and — unless
// the clauses are independent, when lo == hi — bitwise
// max(lo, min(refHarris, refStar)).
func checkLeafBounds(t *testing.T, name string, s *formula.Space, d formula.DNF, sc *prepScratch) {
	t.Helper()
	p, tol := ratProb(s, d), leafBudget(d)
	rat := func(x float64) *big.Rat { return new(big.Rat).SetFloat64(x) }
	times := func(x *big.Rat, k int64) *big.Rat { // x·(1 + k·budget)
		f := new(big.Rat).Mul(tol, big.NewRat(k, 1))
		return f.Mul(x, f.Add(f, big.NewRat(1, 1)))
	}
	pf, _ := p.Float64()
	positive := refPositive(d)
	multi := positive && len(d) > 1 && !d.IsTrue() // a positive leaf that reaches the first pass
	star := 0.0
	if multi {
		star = refStar(s, d)
	}
	lo, hi, _ := leafBoundsScratch(s, d, sc)
	flo, fhi := fig3Bounds(s, d, true)
	harris := refHarris(s, d)
	switch {
	case rat(lo).Cmp(times(p, 1)) > 0:
		t.Fatalf("%s: lo %v above P %v\n%s", name, lo, pf, d.String(s))
	case rat(hi).Cmp(times(p, -1)) < 0:
		t.Fatalf("%s: hi %v below P %v\n%s", name, hi, pf, d.String(s))
	case lo < 0 || hi > 1 || lo > hi:
		t.Fatalf("%s: malformed bounds [%v, %v]", name, lo, hi)
	case !positive && (math.Float64bits(lo) != math.Float64bits(flo) || math.Float64bits(hi) != math.Float64bits(fhi)):
		t.Fatalf("%s: not positive, [%v, %v] but Figure 3 [%v, %v]", name, lo, hi, flo, fhi)
	case positive && lo > flo:
		t.Fatalf("%s: first-bucket lo %v above Figure 3's %v", name, lo, flo)
	case positive && rat(hi).Cmp(times(rat(fhi), 2)) > 0:
		t.Fatalf("%s: hi %v looser than Figure 3's %v", name, hi, fhi)
	case multi && hi > max(lo, harris):
		t.Fatalf("%s: hi %v above the Harris bound %v", name, hi, harris)
	case multi && !refIndependent(d) && math.Float64bits(hi) != math.Float64bits(max(lo, min(harris, star))):
		t.Fatalf("%s: hi %v, want max(lo %v, min(Harris %v, star %v))", name, hi, lo, harris, star)
	}
}

// refInclusionExclusion is inclusionExclusion as it ran before the
// depth-first subset walk: for every mask a fresh k-way merge scan over
// the selected clauses. The walk must return the same bits.
func refInclusionExclusion(s *formula.Space, d formula.DNF) float64 {
	n := len(d)
	var pos [incExcMaxClauses]int
	total := 0.0
	for mask := 1; mask < 1<<n; mask++ {
		for b := 0; b < n; b++ {
			pos[b] = 0
		}
		p := 1.0
		ok := true
		for {
			// Find the smallest next variable across selected clauses.
			best := formula.Var(-1)
			for b := 0; b < n; b++ {
				if mask&(1<<b) == 0 || pos[b] >= len(d[b]) {
					continue
				}
				if v := d[b][pos[b]].Var; best < 0 || v < best {
					best = v
				}
			}
			if best < 0 {
				break
			}
			// All selected clauses mentioning best must agree on its value.
			val := formula.Val(-1)
			for b := 0; b < n; b++ {
				if mask&(1<<b) == 0 || pos[b] >= len(d[b]) || d[b][pos[b]].Var != best {
					continue
				}
				if val < 0 {
					val = d[b][pos[b]].Val
				} else if d[b][pos[b]].Val != val {
					ok = false
				}
				pos[b]++
			}
			if !ok {
				break
			}
			p *= s.P(formula.Atom{Var: best, Val: val})
		}
		if !ok {
			continue
		}
		if bits.OnesCount(uint(mask))%2 == 1 {
			total += p
		} else {
			total -= p
		}
	}
	return clamp01(total)
}

// TestInclusionExclusionMatchesOracle: the subset walk returns the
// oracle's Float64bits on every shape the walk treats differently —
// pruned early, never pruned, empty clauses, shared and multi-valued
// variables — and on random DNFs of 1 to 6 clauses.
func TestInclusionExclusionMatchesOracle(t *testing.T) {
	s := formula.NewSpace()
	b := make([]formula.Var, 6)
	for i := range b {
		b[i] = s.AddBool(0.1 + 0.13*float64(i))
	}
	m3 := s.AddVar(0.2, 0.3, 0.5)
	m4 := s.AddVar(0.1, 0.2, 0.3, 0.4)
	at := func(v formula.Var, a formula.Val) formula.Atom { return formula.Atom{Var: v, Val: a} }
	c := formula.MustClause
	type tc struct {
		name string
		s    *formula.Space
		d    formula.DNF
	}
	cases := []tc{
		{"width-0 clause among others", s, formula.DNF{
			c(formula.Pos(b[0]), formula.Pos(b[1])), c(), c(formula.Neg(b[1]), formula.Pos(b[2])), c(formula.Pos(b[3]))}},
		{"only the width-0 clause", s, formula.DNF{c()}},
		{"shared variables", s, formula.DNF{
			c(formula.Pos(b[0]), formula.Pos(b[1])), c(formula.Pos(b[1]), formula.Pos(b[2])),
			c(formula.Pos(b[0]), formula.Pos(b[2])), c(formula.Pos(b[2]), formula.Neg(b[3]), formula.Pos(b[4])),
			c(formula.Pos(b[0]), formula.Pos(b[4]), formula.Pos(b[5]))}},
		{"multi-valued variables", s, formula.DNF{
			c(at(m3, 0)), c(at(m3, 1), at(m4, 2)), c(at(m4, 3)), c(at(m4, 0), formula.Pos(b[0])),
			c(at(m3, 2), at(m4, 2), formula.Neg(b[1])), c(at(m3, 1), at(m4, 1))}},
		{"duplicate clause", s, formula.DNF{c(formula.Pos(b[0])), c(formula.Pos(b[0]), formula.Pos(b[1])), c(formula.Pos(b[0]))}},
	}
	is, id := pairwiseInconsistentSix()
	ds, dd := disjointSix()
	gs, gd := rstGrid(3)
	cases = append(cases,
		tc{"all pairwise inconsistent", is, id},
		tc{"all disjoint", ds, dd},
		tc{"R(x) S(x,y) T(y) 2×3 grid", gs, gd[:6]})
	for k := 1; k <= incExcMaxClauses; k++ {
		for seed := int64(0); seed < 40; seed++ {
			cfg := randdnf.Config{Vars: 3 + int(seed%6), Clauses: k, MaxWidth: 3, MaxDomain: 2 + int(seed%3), MinProb: 0.05, MaxProb: 0.95}
			rs, rd := randdnf.Generate(cfg, 7_000+100*int64(k)+seed)
			cases = append(cases, tc{fmt.Sprintf("random %d clauses, seed %d", k, seed), rs, rd})
		}
	}
	for _, tc := range cases {
		got, want := inclusionExclusion(tc.s, tc.d), refInclusionExclusion(tc.s, tc.d)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: walk %v (%#x), oracle %v (%#x)\n%s", tc.name, got, math.Float64bits(got), want, math.Float64bits(want), tc.d.String(tc.s))
		}
	}
}

// FuzzInclusionExclusionMatchesOracle is the same bitwise comparison
// over byte-decoded DNFs of at most incExcMaxClauses clauses
// (decodeSmallDNF). The seed corpus is under testdata/fuzz.
func FuzzInclusionExclusionMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, d := decodeSmallDNF(data)
		got, want := inclusionExclusion(s, d), refInclusionExclusion(s, d)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("walk %v, oracle %v\n%s", got, want, d.String(s))
		}
	})
}

// decodeSmallDNF reads: a variable count (1–16), one byte per variable
// (domain size 2–4 and the weights of its distribution), then up to
// incExcMaxClauses clauses, each a width byte (0–3 atoms) followed by
// (variable, value) pairs. Clauses go through formula.NewClause;
// inconsistent ones are dropped, duplicates kept. Missing bytes read 0.
func decodeSmallDNF(data []byte) (*formula.Space, formula.DNF) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	nvars := 1 + next()%16
	s := formula.NewSpace()
	for i := 0; i < nvars; i++ {
		b := next()
		dist := make([]float64, 2+b%3)
		sum := 0.0
		for a := range dist {
			dist[a] = float64(1 + (b*(a+3))%7)
			sum += dist[a]
		}
		for a := range dist {
			dist[a] /= sum
		}
		s.AddVar(dist...)
	}
	var d formula.DNF
	for len(data) > 0 && len(d) < incExcMaxClauses {
		atoms := make([]formula.Atom, next()%4)
		for i := range atoms {
			v := formula.Var(next() % nvars)
			atoms[i] = formula.Atom{Var: v, Val: formula.Val(next() % s.DomainSize(v))}
		}
		if c, ok := formula.NewClause(atoms...); ok {
			d = append(d, c)
		}
	}
	return s, d
}

// The rest of this file is Figure 1 and the Refiner's bookkeeping as
// they ran before figure1.go's shared step and incremental.go's dirty
// path: the allocate-everything pipeline (d.Normalize on every
// fragment, a fresh component partition per step, d.Restrict with a full
// dedup on every child) and the O(tree)-per-Step bounds recompute and
// leaf rescan, moved here from approx.go, parallel.go, prepare.go,
// global.go and refiner.go (the rescan now keys leaves as the heap
// does). refExact is the oracle of exact evaluation, refRefiner of
// every ε > 0 trace.

// refExact is ExactCtx over refExactRec, memoizing in memo (nil: no
// memo) instead of Options.Frags.
func refExact(ctx context.Context, s *formula.Space, d formula.DNF, opt Options, memo *refMemo) (Result, error) {
	st := newState(ctx, s, opt)
	p, err := st.refExactRec(d, memo)
	if err != nil {
		res := st.finish(0, 1)
		res.Converged = false
		return res, err
	}
	res := st.finish(p, p)
	res.Estimate, res.Exact, res.Converged = p, true, true
	return res, nil
}

// refExactRec is the exhaustive, bounds-free recursive compilation
// exact evaluation ran before it became the Refiner's exact mode (and
// before the shared step): depth first, children evaluated in index
// order, every node counted as it is entered.
func (st *state) refExactRec(d formula.DNF, memo *refMemo) (float64, error) {
	st.nodes++
	if err := st.interruptedOrInjected(); err != nil {
		return 0, err
	}
	st.work += int64(len(d))
	if st.overBudget() {
		st.hitBudget()
		return 0, ErrBudget
	}
	d = d.Normalize()
	if d.IsTrue() {
		return 1, nil
	}
	if d.IsFalse() {
		return 0, nil
	}
	d = d.RemoveSubsumed()
	if len(d) == 1 {
		return d[0].Probability(st.s), nil
	}
	if memo == nil {
		return st.refExactDecompose(d, memo)
	}
	if p, ok := memo.lookup(d); ok {
		return p, nil
	}
	p, err := st.refExactDecompose(d, memo)
	if err != nil {
		return 0, err
	}
	memo.store(d, p)
	return p, nil
}

// refMemo is refExact's memo of exact multi-clause fragment
// probabilities: a map from DNF.Hash to the fragments stored under it,
// told apart by DNF.Equal. It shares no code with the FragCache exact
// evaluation memoizes in, so diffExact pins that cache's hit and miss
// counts against an independent table.
type refMemo struct {
	m            map[uint64][]refMemoEntry
	hits, misses int64 // lookups, counted as FragCache.CacheStats counts them
}

type refMemoEntry struct {
	d formula.DNF
	p float64
}

func newRefMemo() *refMemo { return &refMemo{m: make(map[uint64][]refMemoEntry)} }

func (m *refMemo) lookup(d formula.DNF) (float64, bool) {
	p, ok := m.find(d)
	if ok {
		m.hits++
	} else {
		m.misses++
	}
	return p, ok
}

func (m *refMemo) find(d formula.DNF) (float64, bool) {
	for _, e := range m.m[d.Hash()] {
		if e.d.Equal(d) {
			return e.p, true
		}
	}
	return 0, false
}

// store keeps the first entry for d, as the memo it pins does.
func (m *refMemo) store(d formula.DNF, p float64) {
	if _, ok := m.find(d); ok {
		return
	}
	h := d.Hash()
	m.m[h] = append(m.m[h], refMemoEntry{d: d, p: p})
}

// refComponents is the ⊗ partition's oracle, sharing no code with the
// union-find: a breadth-first search over a variable → clauses map.
// It returns the clause indices of each connected component of d (an
// empty clause is one on its own), components in order of their first
// clause, indices ascending.
func refComponents(d formula.DNF) [][]int {
	byVar := make(map[formula.Var][]int)
	for i, c := range d {
		for _, a := range c {
			byVar[a.Var] = append(byVar[a.Var], i)
		}
	}
	seen := make([]bool, len(d))
	var comps [][]int
	for i := range d {
		if seen[i] {
			continue
		}
		seen[i] = true
		comp := []int{i}
		for q := 0; q < len(comp); q++ {
			for _, a := range d[comp[q]] {
				for _, j := range byVar[a.Var] {
					if !seen[j] {
						seen[j] = true
						comp = append(comp, j)
					}
				}
			}
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}

// refExactDecompose computes P(d) for a normalized, subsumption-reduced,
// multi-clause DNF by the first applicable rule of Figure 1.
func (st *state) refExactDecompose(d formula.DNF, memo *refMemo) (float64, error) {
	if len(d) <= incExcMaxClauses {
		st.work += 1 << len(d)
		return refInclusionExclusion(st.s, d), nil
	}
	if comps := refComponents(d); len(comps) > 1 {
		subs := make([]formula.DNF, len(comps))
		for i, idx := range comps {
			subs[i] = d.Select(idx)
		}
		ps, err := st.refExactChildren(subs, memo)
		if err != nil {
			return 0, err
		}
		q := 1.0
		for _, p := range ps {
			q *= 1 - p
		}
		return 1 - q, nil
	}
	parts, x := partsOrVar(st.s, d)
	if parts != nil {
		ps, err := st.refExactChildren(parts, memo)
		if err != nil {
			return 0, err
		}
		p := 1.0
		for _, pp := range ps {
			p *= pp
		}
		return p, nil
	}
	var subs []formula.DNF
	var weights []float64
	for a := 0; a < st.s.DomainSize(x); a++ {
		sub := d.Restrict(x, formula.Val(a))
		if sub.IsFalse() {
			continue
		}
		st.nodes++
		subs = append(subs, sub)
		weights = append(weights, st.s.P(formula.Atom{Var: x, Val: formula.Val(a)}))
	}
	ps, err := st.refExactChildren(subs, memo)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for i, p := range ps {
		total += weights[i] * p
	}
	return total, nil
}

// refExactChildren computes the exact probability of every child
// fragment, in index order, stopping at the first error.
func (st *state) refExactChildren(subs []formula.DNF, memo *refMemo) ([]float64, error) {
	ps := make([]float64, len(subs))
	for i, sub := range subs {
		p, err := st.refExactRec(sub, memo)
		if err != nil {
			return nil, err
		}
		ps[i] = p
	}
	return ps, nil
}

// partsOrVar is the ⊙-then-⊕ analysis of one decomposition step for the
// recursive compilers: the independent-and parts of d, or nil and the
// Shannon-expansion variable. The scratch goes back to the pool before
// the caller recurses, so a compilation holds one however deep it is.
func partsOrVar(s *formula.Space, d formula.DNF) ([]formula.DNF, formula.Var) {
	sc := prepPool.Get().(*prepScratch)
	defer prepPool.Put(sc)
	sc.scanVars(s, d, maxVar(d))
	if parts := independentAndParts(d, sc); parts != nil {
		return slices.Clone(parts), 0
	}
	return nil, chooseVar(d, sc)
}

// decomposeRef is decompose on the original preparation pipeline:
// stepRef's children, each prepared from scratch.
func (st *state) decomposeRef(d formula.DNF) (Kind, []*formula.PreparedFrag, []float64) {
	kind, subs, mult := st.stepRef(d)
	return kind, st.prepareAllRef(subs), mult
}

// stepRef is step as it ran before the step blocks: a fresh component
// partition and one Select per component, one allocating DNF.Restrict
// per ⊕ branch.
func (st *state) stepRef(d formula.DNF) (Kind, []formula.DNF, []float64) {
	if comps := refComponents(d); len(comps) > 1 {
		subs := make([]formula.DNF, len(comps))
		for i, idx := range comps {
			subs[i] = d.Select(idx)
		}
		return IndepOr, subs, ones(len(subs))
	}
	parts, x := partsOrVar(st.s, d)
	if parts != nil {
		return IndepAnd, parts, ones(len(parts))
	}
	var subs []formula.DNF
	var mult []float64
	for a := 0; a < st.s.DomainSize(x); a++ {
		sub := d.Restrict(x, formula.Val(a))
		if sub.IsFalse() {
			continue
		}
		st.nodes++ // the {{x=a}} ⊙-companion leaf
		subs = append(subs, sub)
		mult = append(mult, st.s.P(formula.Atom{Var: x, Val: formula.Val(a)}))
	}
	return ExclOr, subs, mult
}

// prepareAllRef prepares every child fragment from scratch.
func (st *state) prepareAllRef(subs []formula.DNF) []*formula.PreparedFrag {
	frags := make([]*formula.PreparedFrag, len(subs))
	for i, sub := range subs {
		frags[i] = st.prepareRef(sub)
	}
	return frags
}

// prepareRef is the original leaf-preparation pipeline: no fragment
// cache, no
// construction-aware shortcuts — every fragment is re-normalized,
// re-reduced and re-bounded from scratch.
func (st *state) prepareRef(d formula.DNF) *formula.PreparedFrag {
	st.work += int64(len(d))
	d = d.Normalize()
	if d.IsTrue() {
		return &formula.PreparedFrag{D: d, Lo: 1, Hi: 1, Exact: true}
	}
	if d.IsFalse() {
		return &formula.PreparedFrag{D: d, Lo: 0, Hi: 0, Exact: true}
	}
	d = d.RemoveSubsumed()
	if len(d) == 1 {
		p := d[0].Probability(st.s)
		return &formula.PreparedFrag{D: d, Lo: p, Hi: p, Exact: true}
	}
	if len(d) <= incExcMaxClauses {
		st.work += 1 << len(d)
		p := refInclusionExclusion(st.s, d)
		return &formula.PreparedFrag{D: d, Lo: p, Hi: p, Exact: true}
	}
	lo, hi, ops := leafBounds(st.s, d)
	st.work += int64(ops)
	return &formula.PreparedFrag{D: d, Lo: lo, Hi: hi, Exact: lo == hi}
}

// refRefiner is the Refiner before the open-leaf heap, the dirty-path
// propagation and the FragCache: every Step rescans the whole tree for
// the open leaf with the largest key (keyedLeaf), refines it on the
// reference pipeline and recomputes the root interval bottom-up. It
// shares the Refiner's shell (absorb, fail, the accessors); the heap
// stays empty.
type refRefiner struct {
	Refiner
	scratch boundsScratch // reusable full-recompute buffers
}

func newRefRefiner(ctx context.Context, s *formula.Space, d formula.DNF, opt Options) *refRefiner {
	r := &refRefiner{Refiner: Refiner{lo: 0, hi: 1}}
	st := &r.st
	st.init(ctx, s, opt)
	if err := st.ctx.Err(); err != nil {
		r.fail(err)
		return r
	}
	f := st.prepareRef(d)
	r.root = gNode{frag: f, lo: f.Lo, hi: f.Hi}
	r.absorb(f.Lo, f.Hi)
	return r
}

func (r *refRefiner) Step(budget int) (lo, hi float64, done bool) {
	if budget < 1 {
		budget = 1
	}
	for i := 0; i < budget && !r.done; i++ {
		if err := r.st.interruptedOrInjected(); err != nil {
			r.fail(err)
			break
		}
		if r.st.overBudget() {
			r.fail(ErrBudget)
			break
		}
		leaf, _ := r.root.keyedLeaf(1)
		if leaf == nil {
			r.done = true
			break
		}
		r.st.refineRef(leaf)
		r.steps++
		r.absorb(r.root.boundsWith(&r.scratch, 0))
	}
	return r.lo, r.hi, r.done
}

func (r *refRefiner) Result() Result {
	res := r.st.finish(r.lo, r.hi)
	if r.root.frag != nil {
		res.Nodes++
	}
	res.EarlyStop = res.Converged && !r.root.complete()
	return res
}

// refineRef is refine over decomposeRef.
func (st *state) refineRef(leaf *gNode) {
	kind, children, mult := st.decomposeRef(leaf.frag.D)
	leaf.kind = kind
	leaf.children = make([]gNode, len(children))
	for i, f := range children {
		leaf.children[i] = gNode{
			frag: f, mult: mult[i],
			parent: leaf, childIdx: int32(i), depth: leaf.depth + 1,
			lo: f.Lo, hi: f.Hi,
		}
	}
	st.nodes += int64(len(children))
}

func (n *gNode) isLeaf() bool { return len(n.children) == 0 }

// bounds recomputes the node's probability interval bottom-up over the
// whole subtree, including each child's branch weight. The hot
// path maintains the same values incrementally (see gNode.recompute),
// bitwise-identically.
func (n *gNode) bounds() (lo, hi float64) {
	var sc boundsScratch
	return n.boundsWith(&sc, 0)
}

// boundsWith is bounds with caller-provided scratch buffers: one
// lo/hi slice pair per tree level, reused across calls, so repeated
// full recomputes allocate only on tree
// growth. The operations and their order are exactly those of the
// original per-call-allocating implementation.
func (n *gNode) boundsWith(sc *boundsScratch, depth int) (lo, hi float64) {
	if n.isLeaf() {
		return n.frag.Lo, n.frag.Hi
	}
	for len(sc.lo) <= depth {
		sc.lo = append(sc.lo, nil)
		sc.hi = append(sc.hi, nil)
	}
	loArr, hiArr := sc.lo[depth][:0], sc.hi[depth][:0]
	for i := range n.children {
		c := &n.children[i]
		l, h := c.boundsWith(sc, depth+1)
		m := c.mult
		if m == 0 {
			m = 1
		}
		loArr = append(loArr, m*l)
		hiArr = append(hiArr, m*h)
	}
	sc.lo[depth], sc.hi[depth] = loArr, hiArr // keep grown capacity
	return combine(n.kind, loArr, hiArr)
}

// combine folds the children's (weighted) bounds into the node's by the
// rule of its kind: Σ under ⊕, 1 − Π(1 − ·) under ⊗, Π under ⊙ — the
// bound algebra gNode.recompute repeats over cached values in place.
func combine(kind Kind, loArr, hiArr []float64) (lo, hi float64) {
	switch kind {
	case ExclOr:
		for i := range loArr {
			lo += loArr[i]
			hi += hiArr[i]
		}
	case IndepOr:
		ql, qh := 1.0, 1.0
		for i := range loArr {
			ql *= 1 - loArr[i]
			qh *= 1 - hiArr[i]
		}
		lo, hi = 1-ql, 1-qh
	case IndepAnd:
		lo, hi = 1, 1
		for i := range loArr {
			lo *= loArr[i]
			hi *= hiArr[i]
		}
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// boundsScratch holds the per-level slice buffers of boundsWith.
type boundsScratch struct {
	lo, hi [][]float64
}

// complete reports whether every leaf is exact.
func (n *gNode) complete() bool {
	if n.isLeaf() {
		return n.frag.Exact
	}
	for i := range n.children {
		if !n.children[i].complete() {
			return false
		}
	}
	return true
}

// keyedLeaf returns the open leaf under n with the largest key — its
// width times its root sensitivity — and that sensitivity, or nil if
// every leaf is exact. sens is n's own sensitivity. A child's is sens ×
// ((mult × the product of its earlier siblings' factors) × the product
// of its later siblings' factors, each product taken from the block's
// end inwards, as attach's two passes take it), the factors being
// 1 − mult·lo under ⊗, mult·hi under ⊙ and 1 under ⊕ from the
// siblings' prepared bounds. It is recomputed at every scan, in
// O(fanout²) per node. Key ties go to the first such leaf in DFS
// preorder (the scan keeps the first strictly-largest hit).
func (n *gNode) keyedLeaf(sens float64) (*gNode, float64) {
	if n.isLeaf() {
		if n.frag.Exact {
			return nil, 0
		}
		return n, sens
	}
	factor := func(c *gNode) float64 {
		switch n.kind {
		case IndepOr:
			return 1 - c.mult*c.frag.Lo
		case IndepAnd:
			return c.mult * c.frag.Hi
		}
		return 1
	}
	var best *gNode
	bestSens, bestKey := 0.0, -1.0
	for i := range n.children {
		pre, suf := 1.0, 1.0
		for j := 0; j < i; j++ {
			pre *= factor(&n.children[j])
		}
		for j := len(n.children) - 1; j > i; j-- {
			suf *= factor(&n.children[j])
		}
		c := &n.children[i]
		if leaf, ls := c.keyedLeaf(sens * (c.mult * pre * suf)); leaf != nil {
			if k := (leaf.frag.Hi - leaf.frag.Lo) * ls; k > bestKey {
				best, bestSens, bestKey = leaf, ls, k
			}
		}
	}
	return best, bestSens
}
