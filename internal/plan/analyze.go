package plan

import (
	"fmt"

	"repro/internal/formula"
	"repro/internal/pdb"
)

// Structural analysis: the planner walks the IR once, mapping every
// output column back to its base-relation column (its origin), and
// collecting the equality and inequality join conditions as edges
// between origins. Opaque predicates anywhere except directly over a
// scan taint the analysis — the structural routes need to *see* the
// conditions. The same walk is the IR's one validator: a malformed tree
// is recorded as invalid, and Compile turns that into the plan's error.
// Analysis is pure plan-shape work; the per-tuple event independence
// check (below) is the only part that reads data.

// origin identifies a base-relation column: leaf index and column.
type origin struct {
	leaf, col int
}

// leafInfo is one base relation with its pushed-down filters. The
// filters are applied in place wherever the leaf's qualifying tuples
// are consumed (independence check, safe-plan leaf scans, IQ levels) —
// no filtered copy of the relation is ever materialized.
type leafInfo struct {
	rel     *pdb.Relation
	filters []func([]pdb.Value) bool
}

// qualifies reports whether a tuple of the leaf passes every
// pushed-down filter.
func (l *leafInfo) qualifies(vals []pdb.Value) bool {
	for _, f := range l.filters {
		if !f(vals) {
			return false
		}
	}
	return true
}

// cancelStride is how many of a leaf's tuples a structural-route scan
// (safe-plan leaf, IQ level) reads between polls of its context.
const cancelStride = 4096

// equality / inequality edges between origins. For ineqEdge the
// semantics are left < right (strict).
type eqEdge struct{ a, b origin }
type ineqEdge struct{ left, right origin }

// analysis is the extracted query graph.
type analysis struct {
	leaves []leafInfo
	eqs    []eqEdge
	ineqs  []ineqEdge
	// head is the origin of each GroupLineage output column.
	head []origin
	// taint, when non-empty, names the IR feature that blocks the
	// structural routes (opaque predicate, residual join condition, …).
	taint string
	// invalid, when non-empty, names the first malformation the walk
	// met: the tree cannot execute on any route.
	invalid string
}

// analyze extracts the query graph under a GroupLineage root.
func analyze(g *GroupLineage) *analysis {
	a := &analysis{}
	cols := a.walk(g.Input)
	for _, c := range g.Cols {
		if a.inRange("GroupLineage", c, cols) {
			a.head = append(a.head, cols[c])
		}
	}
	return a
}

// walk returns the origin of every output column of n, registering
// leaves and edges on the way. A malformed node — a nil input,
// relation or predicate, an out-of-range column, a ThetaJoin without a
// condition, GroupLineage or a ranking node below the root, a type
// outside the IR — marks the analysis invalid; the first reason wins.
func (a *analysis) walk(n Node) []origin {
	switch t := n.(type) {
	case nil:
		a.reject("nil input node")
	case *Scan:
		if t.Rel == nil {
			a.reject("Scan of a nil relation")
			return nil
		}
		li := len(a.leaves)
		a.leaves = append(a.leaves, leafInfo{rel: t.Rel})
		out := make([]origin, len(t.Rel.Cols))
		for i := range out {
			out[i] = origin{li, i}
		}
		return out
	case *Select:
		// A filter directly over a leaf chain is pushed into the leaf;
		// anywhere else it is an opaque predicate over derived tuples.
		out := a.walk(t.Input)
		switch {
		case t.Pred == nil:
			a.reject("Select without a predicate")
		case isLeafChain(t.Input) && identityOrigins(out):
			a.leaves[out[0].leaf].filters = append(a.leaves[out[0].leaf].filters, t.Pred)
		default:
			a.mark("selection over a derived relation")
		}
		return out
	case *EquiJoin:
		l := a.walk(t.Left)
		r := a.walk(t.Right)
		if a.inRange("EquiJoin left", t.LeftCol, l) && a.inRange("EquiJoin right", t.RightCol, r) {
			a.eqs = append(a.eqs, eqEdge{l[t.LeftCol], r[t.RightCol]})
		}
		if t.On != nil {
			a.mark("residual equi-join predicate")
		}
		return append(l, r...)
	case *ThetaJoin:
		l := a.walk(t.Left)
		r := a.walk(t.Right)
		switch {
		case t.Less == nil && t.Pred == nil:
			a.reject("ThetaJoin without Less or Pred")
		case t.Less != nil && a.inRange("Less left", t.Less.LeftCol, l) && a.inRange("Less right", t.Less.RightCol, r):
			a.ineqs = append(a.ineqs, ineqEdge{l[t.Less.LeftCol], r[t.Less.RightCol]})
		}
		if t.Pred != nil {
			a.mark("opaque theta-join predicate")
		}
		return append(l, r...)
	case *Project:
		in := a.walk(t.Input)
		out := make([]origin, len(t.Cols))
		for i, c := range t.Cols {
			if a.inRange("Project", c, in) {
				out[i] = in[c]
			}
		}
		return out
	case *GroupLineage:
		a.reject("GroupLineage below the plan root")
	case *TopK, *Threshold:
		// CompileWith strips the one ranking root before analysis.
		a.reject("ranking node (TopK/Threshold) below the plan root")
	default:
		a.reject(fmt.Sprintf("unknown node type %T", n))
	}
	return nil
}

func (a *analysis) mark(reason string) {
	if a.taint == "" {
		a.taint = reason
	}
}

func (a *analysis) reject(reason string) {
	if a.invalid == "" {
		a.invalid = reason
	}
}

// inRange reports whether col indexes cols, rejecting the tree
// otherwise.
func (a *analysis) inRange(op string, col int, cols []origin) bool {
	if col >= 0 && col < len(cols) {
		return true
	}
	a.reject(fmt.Sprintf("%s column %d out of range [0, %d)", op, col, len(cols)))
	return false
}

// isLeafChain reports whether n is a Scan, possibly under Selects.
func isLeafChain(n Node) bool {
	switch t := n.(type) {
	case *Scan:
		return true
	case *Select:
		return isLeafChain(t.Input)
	}
	return false
}

// identityOrigins reports whether cols is exactly one leaf's columns in
// order — i.e. the node is a full-width view of that leaf.
func identityOrigins(cols []origin) bool {
	if len(cols) == 0 {
		return false
	}
	leaf := cols[0].leaf
	for i, o := range cols {
		if o.leaf != leaf || o.col != i {
			return false
		}
	}
	return true
}

// eventIndependent reports whether the qualifying tuples of all leaves
// carry pairwise variable-disjoint lineage — the precondition of both
// structural routes. Tuple-independent relations satisfy it by
// construction; BID relations only when at most one alternative of each
// block survives the filters (in which case treating the survivor as an
// independent tuple is exact); shared variables across relations never
// do.
//
// It first asks the relations' memoized lineage summaries
// (summaryIndependent), which touches no tuple and runs no filter. Only
// when they cannot vouch for the leaves does it stream over the base
// tuples, applying filters in place and copying none of them; what that
// scan keeps is one bit per variable — formula.Space hands out dense
// ids, so the bitset is grown to the largest id met. The summaries
// assume, as pdb.Relation states, that Tups is not edited in place once
// queried.
func eventIndependent(leaves []leafInfo) bool {
	if summaryIndependent(leaves) {
		return true
	}
	var seen []uint64
	for i := range leaves {
		l := &leaves[i]
		for j := range l.rel.Tups {
			t := &l.rel.Tups[j]
			if !l.qualifies(t.Vals) {
				continue
			}
			for _, at := range t.Lin {
				w, bit := int(at.Var>>6), uint64(1)<<(at.Var&63)
				if w >= len(seen) {
					seen = append(seen, make([]uint64, w+1-len(seen))...)
				}
				if seen[w]&bit != 0 {
					return false
				}
				seen[w] |= bit
			}
		}
	}
	return true
}

// summaryIndependent reports that the leaves' lineage is pairwise
// variable-disjoint whatever their filters select: every leaf's
// relation is internally disjoint and the non-empty variable ranges do
// not overlap. It costs O(leaves²) range comparisons. False means only
// that the summaries cannot tell — a BID block with two alternatives, a
// variable shared across relations, or a self-join (a relation's range
// overlaps itself).
func summaryIndependent(leaves []leafInfo) bool {
	type span struct{ lo, hi formula.Var }
	var buf [8]span
	spans := buf[:0]
	for i := range leaves {
		lo, hi, ok := leaves[i].rel.DisjointLineage()
		if !ok {
			return false
		}
		if lo > hi {
			continue
		}
		for _, sp := range spans {
			if lo <= sp.hi && sp.lo <= hi {
				return false
			}
		}
		spans = append(spans, span{lo, hi})
	}
	return true
}

// selfJoinFree reports whether no base relation appears twice.
func selfJoinFree(leaves []leafInfo) bool {
	seen := make(map[*pdb.Relation]struct{}, len(leaves))
	for i := range leaves {
		if _, dup := seen[leaves[i].rel]; dup {
			return false
		}
		seen[leaves[i].rel] = struct{}{}
	}
	return true
}
