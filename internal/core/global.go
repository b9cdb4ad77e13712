package core

import (
	"context"

	"repro/internal/formula"
)

// ApproxGlobalCtx is the first incremental algorithm sketched in Section
// V-D: it materializes the partial d-tree, repeatedly recomputes the
// root bounds, and refines the open leaf with the largest bounds
// interval until the ε-approximation condition of Proposition 5.8
// holds. Unlike Approx it keeps every node in memory and performs no
// leaf closing — it is the paper's motivation for the memory-efficient
// depth-first variant, retained here as an alternative strategy and an
// ablation target. Cancellation matches ApproxCtx: the context is
// checked before every refinement step. It is a Refiner run to
// completion — the resumable step-wise API (see refiner.go) is the
// primitive, this loop its simplest client.
func ApproxGlobalCtx(ctx context.Context, s *formula.Space, d formula.DNF, opt Options) (Result, error) {
	if opt.Eps == 0 {
		return ExactCtx(ctx, s, d, opt)
	}
	r := NewRefiner(ctx, s, d, opt)
	for !r.Done() {
		r.Step(1)
	}
	return r.Result(), r.Err()
}

// gNode is a mutable node of the materialized partial d-tree.
type gNode struct {
	kind     Kind // LeafKind until refined
	children []*gNode
	mult     float64 // ⊕ branch weight (P(x=a)); 1 elsewhere
	frag     frag    // for leaves

	// Incremental bookkeeping (see incremental.go): parent/childIdx/
	// depth locate the node for dirty-path bound propagation and for
	// the heap's DFS-preorder tie-break; lo/hi cache the node's current
	// combined interval (a leaf's heuristic bounds until it is refined).
	parent   *gNode
	childIdx int32
	depth    int32
	lo, hi   float64
}

func (n *gNode) isLeaf() bool { return len(n.children) == 0 }

// bounds recomputes the node's probability interval bottom-up over the
// whole subtree, including each child's branch weight. It is the
// O(tree) reference implementation retained for the refScan path and
// the differential tests; the hot path maintains the same values
// incrementally (see gNode.recompute), bitwise-identically.
func (n *gNode) bounds() (lo, hi float64) {
	var sc boundsScratch
	return n.boundsWith(&sc, 0)
}

// boundsWith is bounds with caller-provided scratch buffers: one
// lo/hi slice pair per tree level, reused across calls, so repeated
// full recomputes (the refScan reference path) allocate only on tree
// growth. The operations and their order are exactly those of the
// original per-call-allocating implementation.
func (n *gNode) boundsWith(sc *boundsScratch, depth int) (lo, hi float64) {
	if n.isLeaf() {
		return n.frag.lo, n.frag.hi
	}
	for len(sc.lo) <= depth {
		sc.lo = append(sc.lo, nil)
		sc.hi = append(sc.hi, nil)
	}
	loArr, hiArr := sc.lo[depth][:0], sc.hi[depth][:0]
	for _, c := range n.children {
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

// boundsScratch holds the per-level slice buffers of boundsWith.
type boundsScratch struct {
	lo, hi [][]float64
}

// complete reports whether every leaf is exact.
func (n *gNode) complete() bool {
	if n.isLeaf() {
		return n.frag.exact
	}
	for _, c := range n.children {
		if !c.complete() {
			return false
		}
	}
	return true
}

// widestLeaf returns the open leaf with the largest bounds interval, or
// nil if every leaf is exact. Width ties go to the first such leaf in
// DFS preorder (the scan below keeps the first strictly-widest hit).
// This is the O(tree) reference implementation retained for the refScan
// path; the hot path keeps the open leaves in a heap with the same
// ordering (see leafHeap).
func (n *gNode) widestLeaf() *gNode {
	if n.isLeaf() {
		if n.frag.exact {
			return nil
		}
		return n
	}
	var best *gNode
	bestW := -1.0
	for _, c := range n.children {
		if leaf := c.widestLeaf(); leaf != nil {
			if w := leaf.frag.hi - leaf.frag.lo; w > bestW {
				best, bestW = leaf, w
			}
		}
	}
	return best
}

// refine decomposes the leaf one level, turning it into an inner node
// whose children are freshly prepared fragments wired for incremental
// propagation (parent pointers, cached heuristic bounds).
func (st *state) refine(leaf *gNode) {
	kind, children, mult := st.decompose(leaf.frag)
	leaf.kind = kind
	leaf.children = make([]*gNode, len(children))
	for i, f := range children {
		leaf.children[i] = &gNode{
			frag: f, mult: mult[i],
			parent: leaf, childIdx: int32(i), depth: leaf.depth + 1,
			lo: f.lo, hi: f.hi,
		}
	}
	st.nodes.Add(int64(len(children)))
}
