package sprout

import "sort"

// WeightedValue is an element of a tuple-independent unary relation used
// by the IQ-query algorithms: an attribute value and the tuple's
// probability of being present.
type WeightedValue struct {
	Val  int64
	Prob float64
}

// sortByVal returns a copy sorted ascending by value.
func sortByVal(xs []WeightedValue) []WeightedValue {
	out := make([]WeightedValue, len(xs))
	copy(out, xs)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Val < out[j].Val })
	return out
}

// chainSuffix stores, for one level sorted ascending by value, the
// suffix chain probabilities ps[i] = P(a chain exists using this level's
// elements i.. and the levels below).
type chainSuffix struct {
	vals []int64
	ps   []float64 // len(vals)+1; ps[len] = 0
}

// beyond returns the chain probability restricted to elements of this
// level with value strictly greater than t.
func (s *chainSuffix) beyond(t int64) float64 {
	i := sort.Search(len(s.vals), func(k int) bool { return s.vals[k] > t })
	return s.ps[i]
}

// ChainConfidence computes the exact probability that a strict chain
// v1 < v2 < ... < vk exists with one present element from each level,
// the lineage pattern of IQ chain queries such as
// q() :- R(E), T(D), T'(G,H), E < D < H (Example 6.7 q1). Two levels
// are the prototypical IQ query q() :- R(X), S(Y), X < Y discussed
// below Lemma 6.8.
//
// It implements the SPROUT inequality algorithm [20] as specialized by
// Lemma 6.8: at each level, conditioning on the element with the
// smallest value makes its co-factor (the chain probability beyond that
// value) subsume the rest, giving the linear recurrence
//
//	P_i = p_i · Q_next(v_i) + (1 − p_i) · P_{i+1}
//
// over the level sorted ascending, where Q_next(t) is the chain
// probability of the following levels restricted to values > t.
// Total cost O(Σ n · log n) for sorting plus linear scans.
func ChainConfidence(levels ...[]WeightedValue) float64 {
	if len(levels) == 0 {
		return 0
	}
	var below *chainSuffix
	for li := len(levels) - 1; li >= 0; li-- {
		level := sortByVal(levels[li])
		if len(level) == 0 {
			return 0
		}
		n := len(level)
		s := &chainSuffix{vals: make([]int64, n), ps: make([]float64, n+1)}
		for i, e := range level {
			s.vals[i] = e.Val
		}
		for i := n - 1; i >= 0; i-- {
			q := 1.0
			if below != nil {
				q = below.beyond(level[i].Val)
			}
			s.ps[i] = level[i].Prob*q + (1-level[i].Prob)*s.ps[i+1]
		}
		below = s
	}
	return below.ps[0]
}

// orSuffix stores suffix independent-or probabilities of one group
// sorted ascending by value: or[i] = 1 − Π_{j ≥ i} (1 − p_j).
type orSuffix struct {
	vals []int64
	or   []float64 // len(vals)+1; or[len] = 0
}

func (s *orSuffix) beyond(t int64) float64 {
	i := sort.Search(len(s.vals), func(k int) bool { return s.vals[k] > t })
	return s.or[i]
}

// Exists1SuffixConfidence computes the exact probability that some
// element e of the first relation is present and, for every group g,
// some element with value strictly greater than e's is present — the
// lineage pattern of IQ "star" queries such as
// q() :- R'(E,F), T(D), S(B,C), E < D, E < C (Example 6.7 q2).
//
// By Lemma 6.8 the smallest-valued e is eliminated first; its co-factor
// is the independent product of the groups' suffix or-probabilities and
// subsumes the remainder, giving
//
//	P_i = p_i · Π_g G_g(v_i) + (1 − p_i) · P_{i+1}
//
// with G_g(t) = 1 − Π_{w ∈ g, w.Val > t} (1 − w.Prob).
func Exists1SuffixConfidence(es []WeightedValue, groups ...[]WeightedValue) float64 {
	if len(es) == 0 {
		return 0
	}
	suffixes := make([]*orSuffix, len(groups))
	for gi, g := range groups {
		if len(g) == 0 {
			return 0
		}
		sorted := sortByVal(g)
		n := len(sorted)
		os := &orSuffix{vals: make([]int64, n), or: make([]float64, n+1)}
		q := 1.0
		for i := n - 1; i >= 0; i-- {
			os.vals[i] = sorted[i].Val
			q *= 1 - sorted[i].Prob
			os.or[i] = 1 - q
		}
		suffixes[gi] = os
	}
	sortedE := sortByVal(es)
	p := 0.0
	for i := len(sortedE) - 1; i >= 0; i-- {
		cof := 1.0
		for _, os := range suffixes {
			cof *= os.beyond(sortedE[i].Val)
		}
		p = sortedE[i].Prob*cof + (1-sortedE[i].Prob)*p
	}
	return p
}
