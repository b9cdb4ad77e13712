package core

// This file holds the incremental refinement machinery of the
// materialized d-tree (Section V-D's incremental loop made cheap):
//
//   - cached per-node bounds with dirty-path propagation, so one
//     refinement updates the root interval in O(depth · fanout) float
//     operations instead of an O(tree) bottom-up recompute, and
//   - a heap of open leaves ordered by how much of their width can
//     reach the root (width × root sensitivity, see leafHeap), so leaf
//     selection is O(log leaves) instead of an O(tree) rescan.
//
// The O(tree) implementations they replaced are the oracle in
// oracle_test.go (refRefiner over gNode.bounds and gNode.keyedLeaf).
// Both produce bitwise-identical bounds: recompute performs exactly the
// float operations of gNode.bounds at each node, in the same order, and
// only nodes whose subtree changed are recomputed — an unchanged child
// contributes the identical cached value a full recompute would derive.

// recompute refreshes n's cached interval from its children's cached
// intervals, each weighted by its mult, by the rule of n's kind: Σ
// under ⊕, 1 − Π(1 − ·) under ⊗, Π under ⊙, with hi capped at 1. It
// is the package's one statement of that algebra, at every Eps (the
// oracle's combine repeats it over slices).
func (n *gNode) recompute() {
	var lo, hi float64
	switch n.kind {
	case ExclOr:
		for i := range n.children {
			c := &n.children[i]
			lo += c.mult * c.lo
			hi += c.mult * c.hi
		}
	case IndepOr:
		ql, qh := 1.0, 1.0
		for i := range n.children {
			c := &n.children[i]
			ql *= 1 - c.mult*c.lo
			qh *= 1 - c.mult*c.hi
		}
		lo, hi = 1-ql, 1-qh
	case IndepAnd:
		lo, hi = 1, 1
		for i := range n.children {
			c := &n.children[i]
			lo *= c.mult * c.lo
			hi *= c.mult * c.hi
		}
	}
	if hi > 1 {
		hi = 1
	}
	n.lo, n.hi = lo, hi
}

// propagate recomputes cached bounds up the dirty path from n to the
// root, stopping as soon as a node's interval is unchanged: its
// ancestors' inputs are then unchanged too, so their cached values
// already equal what a full recompute would produce. It returns the
// number of nodes recomputed — the dirty path's length — which the
// observability layer histograms to profile how far refinements
// actually reach.
func propagate(n *gNode) int {
	visited := 0
	for ; n != nil; n = n.parent {
		oldLo, oldHi := n.lo, n.hi
		n.recompute()
		visited++
		if n.lo == oldLo && n.hi == oldHi {
			break
		}
	}
	return visited
}

// leafEntry is an open leaf in the Refiner's heap with its root
// sensitivity: the factor by which a change of the leaf's probability
// can move the root's. It is the product along the leaf's path of each
// node's branch weight mult times the factors of its siblings —
// 1 − mult·lo under ⊗, mult·hi under ⊙, 1 under ⊕ — taken from the
// siblings' prepared bounds when the leaf was created. Refinement
// tightens the siblings, so the stored value bounds the leaf's current
// sensitivity from above (the differential tests check it at every
// pop); it is never re-keyed. The sensitivity lives here, not in
// gNode, which stays 80 bytes.
type leafEntry struct {
	n    *gNode
	sens float64
}

// key is the entry's priority: the leaf's own interval width scaled by
// its root sensitivity.
func (e leafEntry) key() float64 { return (e.n.frag.Hi - e.n.frag.Lo) * e.sens }

// leafHeap is a max-heap of the open (inexact) leaves by key, ties
// broken by DFS preorder — exactly the leaf the oracle's keyedLeaf scan
// returns. Key and preorder together order any two distinct leaves, so
// the popped leaf does not depend on the heap's layout. A key reads
// the leaf's width through its fragment pointer (prepared fragments are
// immutable) and its stored sensitivity, so it never changes: leaves
// are pushed at creation and popped once, when chosen for refinement.
// Entries point into their parents' child blocks (or at the Refiner's
// root), which never move. The sift is hand-written: container/heap
// would box every entry through an interface.
type leafHeap []leafEntry

// before reports whether entry i is to be refined before entry j.
func (h leafHeap) before(i, j int) bool {
	ki, kj := h[i].key(), h[j].key()
	if ki != kj {
		return ki > kj
	}
	return dfsBefore(h[i].n, h[j].n)
}

// up restores the heap order after entry j was appended.
func (h leafHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h.before(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// down restores the heap order after entry i was replaced.
func (h leafHeap) down(i int) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && h.before(r, j) {
			j = r
		}
		if !h.before(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// dfsBefore reports whether leaf a precedes leaf b in DFS preorder of
// the materialized tree — the traversal order of a whole-tree scan,
// which is the heap's deterministic tie-break. Both arguments are
// leaves, so neither is an ancestor of the other and the lockstep walk
// always reaches distinct siblings.
func dfsBefore(a, b *gNode) bool {
	for a.depth > b.depth {
		a = a.parent
	}
	for b.depth > a.depth {
		b = b.parent
	}
	for a.parent != b.parent {
		a, b = a.parent, b.parent
	}
	return a.childIdx < b.childIdx
}

// pop removes and returns the open leaf with the largest key — in
// exact mode, where open is a stack, the last one pushed — or an entry
// with a nil leaf when the tree is complete.
func (r *Refiner) pop() leafEntry {
	h := r.open
	if len(h) == 0 {
		return leafEntry{}
	}
	last := len(h) - 1
	top := h[last]
	if !r.st.exact {
		top, h[0] = h[0], top
	}
	h[last] = leafEntry{}
	r.open = h[:last]
	if !r.st.exact {
		r.open.down(0)
	}
	return top
}

// attach wires a just-refined leaf's children into the incremental
// structures — open children join the heap — and propagates the
// leaf's new combined interval up the dirty path, returning that
// path's length. A child's sensitivity is its parent's times its own
// mult times the product of its siblings' factors, the latter taken as
// a prefix product (forward pass) times a suffix product (backward
// pass) over the block's prepared bounds.
func (r *Refiner) attach(e leafEntry) int {
	leaf := e.n
	base := len(r.open)
	pre := 1.0
	for i := range leaf.children {
		c := &leaf.children[i]
		if !c.frag.Exact {
			r.open = append(r.open, leafEntry{c, c.mult * pre})
		}
		pre *= siblingFactor(leaf.kind, c)
	}
	suf, k := 1.0, len(r.open)
	for i := len(leaf.children) - 1; i >= 0; i-- {
		c := &leaf.children[i]
		if !c.frag.Exact {
			k--
			r.open[k].sens = e.sens * (r.open[k].sens * suf)
		}
		suf *= siblingFactor(leaf.kind, c)
	}
	for j := base; j < len(r.open); j++ {
		r.open.up(j)
	}
	return propagate(leaf)
}

// siblingFactor is child c's factor in the root sensitivity of its
// siblings under a node of kind k, read from c's prepared bounds: the
// partial derivative of recompute's combination by a sibling's
// probability holds 1 − mult·lo of c under ⊗ and mult·hi under ⊙, and
// nothing of c under ⊕, whose children are summed.
func siblingFactor(k Kind, c *gNode) float64 {
	switch k {
	case IndepOr:
		return 1 - c.mult*c.frag.Lo
	case IndepAnd:
		return c.mult * c.frag.Hi
	}
	return 1
}
