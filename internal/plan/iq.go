package plan

import (
	"context"
	"fmt"

	"repro/internal/formula"
	"repro/internal/sprout"
)

// IQ-route detection (Section VI, Definition 6.6): Boolean queries
// whose joins are all structured strict inequalities over
// event-independent relations, in one of the tractable shapes —
//
//	chain:  R1.c1 < R2.c2 < … < Rk.ck   (consecutive joins share the
//	        middle endpoint column)
//	star:   R0.c0 < Ri.ci for every other relation Ri
//
// — are answered exactly by the sorted-scan algorithms
// (sprout.ChainConfidence / sprout.Exists1SuffixConfidence) without
// materializing lineage.

// iqPlan is a recognized IQ query.
type iqPlan struct {
	kind string // "chain" or "star"
	// levels[i] = (leaf, compared column); for a star, levels[0] is the
	// exists-level and the rest are the groups. Filters are applied when
	// the levels are materialized, at evaluation time.
	levels []iqLevel
	desc   string
}

type iqLevel struct {
	leaf leafInfo
	col  int
}

// compileIQ attempts the IQ route; on failure it returns the reason.
func compileIQ(a *analysis) (*iqPlan, string) {
	if a.taint != "" {
		return nil, a.taint
	}
	if len(a.ineqs) == 0 {
		return nil, "no inequality joins"
	}
	if len(a.head) != 0 {
		return nil, "non-Boolean head"
	}
	if len(a.eqs) != 0 {
		return nil, "mixed equality and inequality joins"
	}
	n := len(a.leaves)
	if n < 2 || len(a.ineqs) != n-1 {
		return nil, "inequality joins do not span the relations"
	}

	if lv, ok := chainPattern(a); ok {
		return &iqPlan{kind: "chain", levels: resolve(lv, a.leaves),
			desc: fmt.Sprintf("IQ chain sorted-scan over %d levels", n)}, ""
	}
	if lv, ok := starPattern(a); ok {
		return &iqPlan{kind: "star", levels: resolve(lv, a.leaves),
			desc: fmt.Sprintf("IQ star sorted-scan over %d relations", n)}, ""
	}
	return nil, "inequality pattern is neither a chain nor a star"
}

// chainPattern orders the inequality edges into a path
// l0 < l1 < … < l_{k-1} where consecutive edges share the exact
// (leaf, column) endpoint.
func chainPattern(a *analysis) ([]origin, bool) {
	edges := a.ineqs
	// Find the unique starting edge: a left endpoint that is no edge's
	// right endpoint.
	byLeft := make(map[int]ineqEdge)
	isRight := make(map[int]bool)
	for _, e := range edges {
		if _, dup := byLeft[e.left.leaf]; dup {
			return nil, false // two edges out of one leaf → not a chain
		}
		byLeft[e.left.leaf] = e
		isRight[e.right.leaf] = true
	}
	start := -1
	for leaf := range byLeft {
		if !isRight[leaf] {
			if start >= 0 {
				return nil, false
			}
			start = leaf
		}
	}
	if start < 0 {
		return nil, false
	}
	var levels []origin
	seen := make(map[int]bool)
	cur := byLeft[start]
	for {
		if seen[cur.left.leaf] {
			return nil, false
		}
		seen[cur.left.leaf] = true
		levels = append(levels, cur.left)
		next, more := byLeft[cur.right.leaf]
		if !more {
			// Path ends at cur.right.
			if seen[cur.right.leaf] {
				return nil, false
			}
			levels = append(levels, cur.right)
			break
		}
		// The middle endpoint must be the same column on both edges.
		if next.left != cur.right {
			return nil, false
		}
		cur = next
	}
	if len(levels) != len(a.leaves) {
		return nil, false
	}
	return levels, true
}

// starPattern checks that every edge shares one left endpoint and the
// right endpoints cover the other leaves once each.
func starPattern(a *analysis) ([]origin, bool) {
	center := a.ineqs[0].left
	seen := map[int]bool{center.leaf: true}
	levels := []origin{center}
	for _, e := range a.ineqs {
		if e.left != center {
			return nil, false
		}
		if seen[e.right.leaf] {
			return nil, false
		}
		seen[e.right.leaf] = true
		levels = append(levels, e.right)
	}
	if len(levels) != len(a.leaves) {
		return nil, false
	}
	return levels, true
}

func resolve(levels []origin, leaves []leafInfo) []iqLevel {
	out := make([]iqLevel, len(levels))
	for i, o := range levels {
		out[i] = iqLevel{leaf: leaves[o.leaf], col: o.col}
	}
	return out
}

// weighted streams each level's qualifying tuples into (value,
// probability) pairs — the sorted scans' input — applying the
// pushed-down filters in place, once per evaluation.
func (p *iqPlan) weighted(ctx context.Context, s *formula.Space) ([][]sprout.WeightedValue, error) {
	out := make([][]sprout.WeightedValue, len(p.levels))
	for i := range p.levels {
		lv := &p.levels[i]
		ws := make([]sprout.WeightedValue, 0, lv.leaf.rel.Len())
		for j, t := range lv.leaf.rel.Tups {
			if j%cancelStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			if !lv.leaf.qualifies(t.Vals) {
				continue
			}
			ws = append(ws, sprout.WeightedValue{
				Val:  int64(t.Vals[lv.col]),
				Prob: t.Lin.Probability(s),
			})
		}
		out[i] = ws
	}
	return out, nil
}

// confidence runs the sorted scans over materialized levels.
func (p *iqPlan) confidence(levels [][]sprout.WeightedValue) float64 {
	if p.kind == "chain" {
		return sprout.ChainConfidence(levels...)
	}
	return sprout.Exists1SuffixConfidence(levels[0], levels[1:]...)
}

// hasAnswer reports whether some combination of level elements
// satisfies the inequalities — i.e. whether the lineage route would
// produce a Boolean answer at all (the "certainly false ⇒ no answer"
// convention).
func (p *iqPlan) hasAnswer(levels [][]sprout.WeightedValue) bool {
	for _, lv := range levels {
		if len(lv) == 0 {
			return false
		}
	}
	if p.kind == "chain" {
		// A qualifying chain needs strictly increasing picks: greedily
		// thread the smallest value > previous through the levels.
		prev := int64(-1 << 62)
		for _, lv := range levels {
			best, found := int64(0), false
			for _, w := range lv {
				if w.Val > prev && (!found || w.Val < best) {
					best, found = w.Val, true
				}
			}
			if !found {
				return false
			}
			prev = best
		}
		return true
	}
	// Star: some center value strictly below some value of every group.
	minCenter := levels[0][0].Val
	for _, w := range levels[0][1:] {
		if w.Val < minCenter {
			minCenter = w.Val
		}
	}
	for _, lv := range levels[1:] {
		ok := false
		for _, w := range lv {
			if w.Val > minCenter {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}
