package core

import "container/heap"

// This file holds the incremental refinement machinery of the
// materialized d-tree (Section V-D's widest-leaf loop made cheap):
//
//   - cached per-node bounds with dirty-path propagation, so one
//     refinement updates the root interval in O(depth · fanout) float
//     operations instead of an O(tree) bottom-up recompute, and
//   - a heap of open leaves ordered widest-interval-first, so widest-
//     leaf selection is O(log leaves) instead of an O(tree) rescan.
//
// The O(tree) implementations they replaced are the oracle in
// oracle_test.go (refRefiner over gNode.bounds and gNode.widestLeaf).
// Both produce bitwise-identical bounds: recompute performs exactly the
// float operations of gNode.bounds at each node, in the same order, and
// only nodes whose subtree changed are recomputed — an unchanged child
// contributes the identical cached value a full recompute would derive.

// recompute refreshes n's cached interval from its children's cached
// intervals — combine's operations in combine's order, over the cached
// values in place.
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

// leafHeap orders the open (inexact) leaves widest bounds interval
// first, ties broken by DFS preorder — exactly the leaf the oracle's
// widestLeaf scan returns. A leaf's width is read through its
// fragment pointer, and prepared fragments are immutable, so the heap
// needs no re-keying: leaves are pushed at creation and popped once,
// when chosen for refinement. Its elements point into their parents'
// child blocks (or at the Refiner's root), which never move.
type leafHeap []*gNode

func (h leafHeap) Len() int { return len(h) }

func (h leafHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	wa := a.frag.Hi - a.frag.Lo
	wb := b.frag.Hi - b.frag.Lo
	if wa != wb {
		return wa > wb
	}
	return dfsBefore(a, b)
}

func (h leafHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *leafHeap) Push(x any) { *h = append(*h, x.(*gNode)) }

func (h *leafHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// dfsBefore reports whether leaf a precedes leaf b in DFS preorder of
// the materialized tree — the traversal order of a whole-tree
// widest-leaf scan, which is the heap's deterministic tie-break.
// Both arguments are leaves, so neither is an ancestor of the other
// and the lockstep walk always reaches distinct siblings.
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

// popWidest removes and returns the widest open leaf, or nil when the
// tree is complete.
func (r *Refiner) popWidest() *gNode {
	if len(r.open) == 0 {
		return nil
	}
	return heap.Pop(&r.open).(*gNode)
}

// attach wires a just-refined leaf's children into the incremental
// structures — open children join the heap — and propagates the
// leaf's new combined interval up the dirty path, returning that
// path's length.
func (r *Refiner) attach(leaf *gNode) int {
	for i := range leaf.children {
		if c := &leaf.children[i]; !c.frag.Exact {
			heap.Push(&r.open, c)
		}
	}
	return propagate(leaf)
}
