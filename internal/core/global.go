package core

import "repro/internal/formula"

// gNode is a mutable node of the materialized partial d-tree. A node's
// children are one block, allocated when the node is refined and never
// resized, so a child's address is fixed for the tree's lifetime: the
// open-leaf heap and the grandchildren's parent fields point into the
// block. A node points at its prepared fragment: a cache entry or a
// slot of its parent's decomposition. The heap keeps an open leaf's
// root sensitivity in its entry, not here, so gNode stays 80 bytes.
// In exact mode a child that is a leaf at preparation has no fragment
// (only its probability, in lo and hi), and a node's block is dropped
// once the node's probability is combined (Refiner.complete): nothing
// points into it any more.
type gNode struct {
	kind Kind // LeafKind until refined
	// open counts, in exact mode, the children still to complete (it
	// fits in kind's padding).
	open     int32
	children []gNode
	mult     float64               // ⊕ branch weight (P(x=a)); 1 elsewhere
	frag     *formula.PreparedFrag // shared and read-only

	// Incremental bookkeeping (see incremental.go): parent/childIdx/
	// depth locate the node for dirty-path bound propagation and for
	// the heap's DFS-preorder tie-break; lo/hi cache the node's current
	// combined interval (a leaf's heuristic bounds until it is refined).
	parent   *gNode
	childIdx int32
	depth    int32
	lo, hi   float64
}

// refine decomposes the leaf one level, turning it into an inner node
// whose children are freshly prepared fragments wired for incremental
// propagation (parent pointers, cached heuristic bounds). The children's
// node block is the one allocation a warm refinement makes: a replayed
// decision's child list is the decision's own. In exact mode (expand)
// the step's children are prepared by leafHead alone, straight into
// the block: a child that is a leaf already keeps only its probability
// (frag nil), and an open one gets a fragment open at [0, 1].
func (st *state) refine(leaf *gNode) {
	if st.exact {
		st.expand(leaf)
		return
	}
	kind, children, mult := st.decompose(leaf.frag)
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
	st.inner[kind]++
}

// expand is refine in exact mode, where a child needs only its weight,
// its parent and its value (no heap key, so no depth or index).
func (st *state) expand(leaf *gNode) {
	sc := prepPool.Get().(*prepScratch)
	defer prepPool.Put(sc)
	kind, subs, mult := st.step(leaf.frag.D, sc)
	leaf.kind = kind
	leaf.children = make([]gNode, len(subs))
	for i, sub := range subs {
		st.work += int64(len(sub))
		c := &leaf.children[i]
		c.mult, c.parent = mult[i], leaf
		if d, p, done := st.leafHead(sub, true, kind == IndepOr); done {
			c.lo, c.hi = p, p
		} else {
			c.frag, c.hi = &formula.PreparedFrag{D: d, Hi: 1}, 1
		}
	}
	clear(subs) // the list stays in sc; the blocks it names need not
	st.nodes += int64(len(subs))
	st.inner[kind]++
}
