package core

import (
	"math"
	"math/bits"

	"repro/internal/formula"
)

// LeafBounds bounds the probability of a DNF leaf, refining the
// Independent heuristic of Figure 3. Clauses are taken in bucket order,
// descending on marginal probability, which empirically tightens the
// lower bound (Example 5.2), and the first bucket greedily absorbs
// every clause independent of those it already holds. Its probability
// is a lower bound.
//
// A leaf is positive when every variable in it occurs with a single
// value, as in all tuple-independent lineage. Its clauses are then
// increasing events of independent variables, so by Harris' inequality
// they are positively correlated and
//
//	P(d) ≤ 1 − Π_c (1 − P(c))
//
// — Gatterbauer and Suciu's full dissociation, never looser than
// Figure 3's sum of bucket probabilities. One level of dissociation
// less is never looser still: assign each clause to its hub, its most
// frequent variable v (the smallest id among equals), and let A_v be
// the clauses of hub v with v removed. The blocks v ∧ A_v are
// increasing events, and P(v ∧ A_v) = p_v · P(A_v), so Harris twice
// gives the star cover
//
//	P(d) ≤ ⊕_v p_v · (1 − Π_{c ∈ A_v} (1 − P(c))),
//
// ⊕ the independent union over hubs in order of first use; it is never
// above the Harris bound, since p·(1 − Π(1 − a_i)) ≤ 1 − Π(1 − p·a_i).
// A positive leaf gets
//
//	lo = P(first bucket),  hi = min(Harris, star cover)
//
// from two passes over its clauses; no later bucket is built. A leaf in
// which some variable occurs with two values (block-independent-disjoint
// lineage) can be negatively correlated, so it keeps Figure 3 whole:
// the partition into buckets of pairwise-independent clauses and
//
//	lo = max bucket probability,  hi = min(1, sum of bucket probabilities).
//
// Either way, when the first bucket absorbs every clause they are
// pairwise independent and lo == hi == P(d).
//
// Floating point: every union — each bucket probability, the Harris
// bound, each hub's union of its rests and the union over hubs — is
// accumulated by orIndep, whose terms are all non-negative. With n
// clauses, the widest w atoms wide, and u = 2⁻⁵³, each returned bound
// is within a relative (4n + w)·u of the exact value of the expression
// it computes, so lo ≤ P(d)·(1 + (4n + w)·u) and
// hi ≥ P(d)·(1 − (4n + w)·u). For the star cover: a fold's first step
// is exact and each later one costs 3u to first order, each hub term is
// a product of at most w atoms, and with h hubs, the largest holding k
// clauses, h + k ≤ n + 1 — so it is within (3(h + k − 2) + w)·u ≤
// (3n + w)·u of its expression.
func LeafBounds(s *formula.Space, d formula.DNF) (lo, hi float64) {
	lo, hi, _ = leafBounds(s, d)
	return lo, hi
}

// leafBounds additionally reports the number of clause-processing
// operations performed, which the incremental algorithm charges against
// its work budget (Figure 3's bucket loop is the quadratic part of the
// paper's cost analysis; a positive leaf costs two passes). It draws
// scratch buffers from the preparation pool; leafBoundsScratch is the
// same computation over caller-owned scratch.
func leafBounds(s *formula.Space, d formula.DNF) (lo, hi float64, ops int) {
	sc := prepPool.Get().(*prepScratch)
	lo, hi, ops = leafBoundsScratch(s, d, sc)
	prepPool.Put(sc)
	return lo, hi, ops
}

// leafBoundsScratch is the allocation-free heart of LeafBounds: the
// clause probabilities in bucket order, the per-variable stamps, the
// value each stamped variable occurs with, its occurrence count (in the
// step's varInfo records) and the star cover's per-hub accumulators
// live in sc and are reused across calls. The first pass needs two live
// epochs and takes both in one call; the star cover marks hubs with the
// first of them; each later bucket takes one.
func leafBoundsScratch(s *formula.Space, d formula.DNF, sc *prepScratch) (lo, hi float64, ops int) {
	switch {
	case d.IsFalse():
		return 0, 0, 0
	case d.IsTrue():
		return 1, 1, 0
	case len(d) == 1:
		p := d[0].Probability(s)
		return p, p, 1
	}

	sc.keys[0], sc.keys[1] = grow(sc.keys[0], len(d)), grow(sc.keys[1], len(d))
	order, spare := sc.keys[0], sc.keys[1]
	for i, c := range d {
		order[i] = probKey{desc: ^math.Float64bits(c.Probability(s)), i: int32(i)}
	}
	order = sortProbKeys(order, spare)

	top := maxVar(d)
	sc.st, sc.val = grow(sc.st, int(top)+1), grow(sc.val, int(top)+1)
	stamp, val, info := sc.st, sc.val, sc.step.records(top)

	// One pass over every clause builds the first bucket — the most
	// probable clause, then every later one independent of the bucket so
	// far — accumulates the Harris bound, counts each variable's
	// occurrences and checks positivity. Bucket variables carry the stamp
	// in, other variables seen so far the stamp seen, val holds the value
	// each stamped variable occurs with and info its occurrence count.
	// Clauses left out move, in order, to the front of order.
	seen := sc.epochs(2)
	in := seen + 1
	positive := true
	rest := 0
	for _, k := range order {
		ops++
		c := d[k.i]
		fits := disjointStamp(c, stamp, in)
		mark := seen
		if fits {
			mark = in
		}
		for _, a := range c {
			switch stamp[a.Var] {
			case in:
				positive = positive && val[a.Var] == a.Val
				info[a.Var].occ++
				continue
			case seen:
				positive = positive && val[a.Var] == a.Val
				info[a.Var].occ++
			default:
				val[a.Var], info[a.Var].occ = a.Val, 1
			}
			stamp[a.Var] = mark
		}
		hi = orIndep(hi, k.prob())
		if fits {
			lo = orIndep(lo, k.prob())
		} else {
			order[rest] = k
			rest++
		}
	}
	switch {
	case rest == 0:
		// All clauses pairwise independent: the bucket probability is exact.
		return lo, lo, ops
	case positive:
		hi = min(hi, sc.starCover(s, d, info, seen))
		return lo, max(lo, hi), ops + len(d) // numeric guard; mathematically lo ≤ hi
	}

	// Not positive: Figure 3's later buckets, each absorbing every
	// remaining clause independent of it, in order.
	sum := lo
	for rest > 0 {
		epoch := sc.epochs(1)
		bp, n := 0.0, 0
		for _, k := range order[:rest] {
			ops++
			c := d[k.i]
			if !disjointStamp(c, stamp, epoch) {
				order[n] = k
				n++
				continue
			}
			for _, a := range c {
				stamp[a.Var] = epoch
			}
			bp = orIndep(bp, k.prob())
		}
		rest = n
		lo = max(lo, bp)
		sum += bp
		// Once the bucket sum reaches 1 the upper bound is already
		// clamped to 1, and the first (greedy, highest-probability)
		// buckets dominate the lower bound: further partitioning cannot
		// improve the upper bound, so stop. Bounds remain correct
		// (Proposition 5.1 holds for any bucket subset with hi = 1).
		if sum >= 1 && rest > 0 {
			return lo, 1, ops
		}
	}
	return lo, max(lo, min(sum, 1)), ops
}

// starCover is the one-level dissociation bound of a positive leaf d
// whose occurrence counts the first pass left in info: every clause
// goes to its hub, its most frequent variable (the smallest id among
// equals), and with A_v the clauses of hub v less v,
//
//	P(d) ≤ ⊕_v p_v · (1 − Π_{c ∈ A_v} (1 − P(c)))
//
// with ⊕ the orIndep fold over hubs in order of first use. The hubs'
// accumulators are dense, two per hub in sc.hubs (p_v, then the union
// of its rests), reached through the hub's info record: mark holds the
// epoch e once the hub has a place, group that place. e must be an
// epoch no info mark holds yet.
func (sc *prepScratch) starCover(s *formula.Space, d formula.DNF, info []varInfo, e uint32) float64 {
	hubs := sc.hubs[:0]
	for _, c := range d {
		h, hub := 0, &info[c[0].Var]
		for j := 1; j < len(c); j++ {
			if vi := &info[c[j].Var]; vi.occ > hub.occ {
				h, hub = j, vi
			}
		}
		r := 1.0
		for _, a := range c[:h] {
			r *= s.P(a)
		}
		for _, a := range c[h+1:] {
			r *= s.P(a)
		}
		if hub.mark != e {
			hub.mark, hub.group = e, int32(len(hubs))
			hubs = append(hubs, s.P(c[h]), 0)
		}
		hubs[hub.group+1] = orIndep(hubs[hub.group+1], r)
	}
	sc.hubs = hubs
	star := 0.0
	for g := 0; g < len(hubs); g += 2 {
		star = orIndep(star, hubs[g]*hubs[g+1])
	}
	return star
}

// orIndep is P(A ∨ B) = s + p·(1 − s) for independent events of
// probabilities s and p, the union kernel of LeafBounds. Every term is
// non-negative, so unlike 1 − (1 − s)(1 − p) it keeps its relative
// precision when s and p are tiny, and never exceeds 1.
func orIndep(s, p float64) float64 { return s + p*(1-s) }

// probKey is a clause's place in Figure 3's bucket order — "sorted
// descending on marginal probability", ties in clause order. A clause
// probability is a product of values in (0, 1] (Space.AddVar panics
// otherwise): never NaN, never negative, possibly +0 by underflow. On
// those the IEEE 754 bit pattern is monotone, so ascending (desc, i) is
// a total order and sorting by it yields the one permutation a stable
// sort descending on probability does.
type probKey struct {
	desc uint64 // ^Float64bits(p): ascending desc is descending p
	i    int32  // clause index
}

func (k probKey) prob() float64 { return math.Float64frombits(^k.desc) }

// radixCutoff is the input size from which sortProbKeys' counting
// passes beat insertion sort.
const radixCutoff = 80

// sortProbKeys sorts keys, which arrive in clause order, ascending on
// desc keeping ties in that order, and returns them in keys or in spare
// (same length). From radixCutoff up it is a byte-wise LSD radix sort —
// O(n) where a comparison sort chases the keys O(n log n) times — that
// skips every pass whose byte all keys share: for probabilities that
// is most of the sign and exponent.
func sortProbKeys(keys, spare []probKey) []probKey {
	if len(keys) < radixCutoff {
		for i := 1; i < len(keys); i++ {
			k := keys[i]
			j := i
			for ; j > 0 && keys[j-1].desc > k.desc; j-- {
				keys[j] = keys[j-1]
			}
			keys[j] = k
		}
		return keys
	}
	var counts [8][256]uint32
	for _, k := range keys {
		d := k.desc
		counts[0][byte(d)]++
		counts[1][byte(d>>8)]++
		counts[2][byte(d>>16)]++
		counts[3][byte(d>>24)]++
		counts[4][byte(d>>32)]++
		counts[5][byte(d>>40)]++
		counts[6][byte(d>>48)]++
		counts[7][byte(d>>56)]++
	}
	for b := range counts {
		c, shift := &counts[b], 8*b
		if c[byte(keys[0].desc>>shift)] == uint32(len(keys)) {
			continue
		}
		next := uint32(0)
		for v, n := range c {
			c[v], next = next, next+n
		}
		for _, k := range keys {
			v := byte(k.desc >> shift)
			spare[c[v]] = k
			c[v]++
		}
		keys, spare = spare, keys
	}
	return keys
}

// incExcMaxClauses bounds the inclusion-exclusion shortcut: DNFs with at
// most this many clauses get an exact probability at leaf-preparation
// time (a walk over at most 2^k clause subsets), collapsing the deep
// tail of Shannon enumeration into point intervals. This implements the
// spirit of Remark 5.3 (better leaf bounds) with an exact, cheap special
// case.
const incExcMaxClauses = 6

// inclusionExclusion computes P(d) exactly via
// P(∨ c_i) = Σ_{∅≠S} (−1)^{|S|+1} P(∧_{i∈S} c_i); inconsistent
// conjunctions contribute 0. It walks the subsets S depth-first over
// clause indices, each level merging its parent's conjunction with one
// later clause, so an inconsistent merge prunes every superset. Cost
// O(2^k · width), pruned at the first inconsistent merge; the stack of
// merged conjunctions lives on the pooled scratch, so the call
// allocates nothing once the scratch has grown to the input.
//
// Precondition: every clause comes from formula.NewClause — atoms in
// ascending Var, no variable twice. The merge relies on it.
//
// The floating-point order is fixed: each conjunction's probability is
// the product over its atoms in ascending variable order from 1.0, and
// the terms are summed in ascending mask order. Reusing the parent's
// product would be cheaper but would change the last bits of P.
func inclusionExclusion(s *formula.Space, d formula.DNF) float64 {
	n := len(d)
	width := 0
	for _, c := range d {
		width += len(c)
	}
	sc := prepPool.Get().(*prepScratch)
	sc.conj = grow(sc.conj, n*width)
	stack := sc.conj // level l's conjunction in stack[l*width:]

	var p [1 << incExcMaxClauses]float64 // P(∧ S) by clause mask S
	var ok [1 << incExcMaxClauses]bool   // S is consistent
	var mask, last, size [incExcMaxClauses]int
	l, j := 0, 0 // the level to fill next, and the clause to try there
	for {
		if j == n {
			if l == 0 {
				break
			}
			l-- // level l's subtree is done: try its next clause
			j = last[l] + 1
			continue
		}
		var parent []formula.Atom
		pm := 0
		if l > 0 {
			parent, pm = stack[(l-1)*width:][:size[l-1]], mask[l-1]
		}
		conj, consistent := mergeAtoms(stack[l*width:l*width:(l+1)*width], parent, d[j])
		if !consistent {
			j++ // every superset is inconsistent too
			continue
		}
		m := pm | 1<<j
		p[m], ok[m] = formula.Clause(conj).Probability(s), true
		mask[l], last[l], size[l] = m, j, len(conj)
		l, j = l+1, j+1
	}
	prepPool.Put(sc)

	total := 0.0
	for m := 1; m < 1<<n; m++ {
		if !ok[m] {
			continue
		}
		if bits.OnesCount(uint(m))%2 == 1 {
			total += p[m]
		} else {
			total -= p[m]
		}
	}
	return clamp01(total)
}

// mergeAtoms appends the union of the ascending atom lists a and b to
// dst, reporting false at the first variable they give different values.
func mergeAtoms(dst, a, b []formula.Atom) ([]formula.Atom, bool) {
	i, k := 0, 0
	for i < len(a) && k < len(b) {
		x, y := a[i], b[k]
		switch {
		case x.Var < y.Var:
			dst = append(dst, x)
			i++
		case x.Var > y.Var:
			dst = append(dst, y)
			k++
		case x.Val != y.Val:
			return dst, false
		default:
			dst = append(dst, x)
			i++
			k++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[k:]...), true
}

func disjointStamp(c formula.Clause, stamps []uint32, epoch uint32) bool {
	for _, a := range c {
		if stamps[a.Var] == epoch {
			return false
		}
	}
	return true
}

// ApproxCond reports whether bounds [lo, hi] satisfy the sufficient
// condition of Proposition 5.8 for an ε-approximation:
//
//	absolute: hi − lo ≤ 2ε
//	relative: (1−ε)·hi − (1+ε)·lo ≤ 0
//
// A 1e-12 slack absorbs floating-point rounding at exact boundaries
// (e.g. bounds [0.842, 0.848] with ε = 0.003 in Example 5.9).
func ApproxCond(kind ErrorKind, eps, lo, hi float64) bool {
	const tol = 1e-12
	if kind == Absolute {
		return hi-lo-2*eps <= tol
	}
	return (1-eps)*hi-(1+eps)*lo <= tol
}

// EstimateFrom returns a value guaranteed to be an ε-approximation given
// bounds satisfying ApproxCond: the midpoint of the interval of valid
// ε-approximations from Proposition 5.8, clamped to [0, 1].
func EstimateFrom(kind ErrorKind, eps, lo, hi float64) float64 {
	var est float64
	if kind == Absolute {
		est = ((hi - eps) + (lo + eps)) / 2 // == (lo+hi)/2
	} else {
		est = ((1-eps)*hi + (1+eps)*lo) / 2
	}
	return clamp01(est)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
