package core

import "repro/internal/formula"

// gNode is a mutable node of the materialized partial d-tree. A node's
// children are one block, allocated when the node is refined and never
// resized, so a child's address is fixed for the tree's lifetime: the
// open-leaf heap and the grandchildren's parent fields point into the
// block. A node points at its prepared fragment: a cache entry or a
// slot of its parent's decomposition. The heap keeps an open leaf's
// root sensitivity in its entry, not here, so gNode stays 80 bytes.
type gNode struct {
	kind     Kind // LeafKind until refined
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
// decision's child list is the decision's own.
func (st *state) refine(leaf *gNode) {
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
	st.nodes.Add(int64(len(children)))
}
