// Package core implements the paper's primary contribution: compilation of
// DNF formulas into d-trees (decomposition trees) and deterministic
// approximate probability computation with error guarantees.
//
// A d-tree is a formula built from three kinds of inner nodes over DNF
// leaves (Definition 4.2):
//
//	⊗  independent-or:  children are pairwise independent DNFs whose
//	    disjunction is the node's formula,
//	⊙  independent-and: children are pairwise independent DNFs whose
//	    conjunction is the node's formula,
//	⊕  exclusive-or:    children are pairwise inconsistent (mutually
//	    exclusive) formulas; produced by Shannon expansion on a variable.
//
// Given exact (or bounded) probabilities at the leaves, the probability
// (or bounds) of the root is computed in one bottom-up pass:
//
//	P(⊗(φ1..φn)) = 1 − Π (1 − P(φi))
//	P(⊙(φ1..φn)) = Π P(φi)
//	P(⊕(φ1..φn)) = Σ P(φi)
//
// A leaf that is not yet decomposed is bounded by LeafBounds. Its lower
// bound is the probability of the first greedy bucket of pairwise
// independent clauses (Figure 3). A leaf is positive when every variable
// in it occurs with a single value, as in all tuple-independent lineage;
// its clauses are then positively correlated (Harris' inequality), so
// its upper bound is the one-level dissociation ("star cover"): each
// clause goes to its most frequent variable v, and the bound is the
// independent union over those hubs of p_v · (1 − Π (1 − P(c \ v))),
// capped by the Harris bound 1 − Π_c (1 − P(c)) over all clauses. Any
// other leaf keeps Figure 3's min(1, Σ bucket probabilities) and the
// largest bucket as lower bound. Leaf unions are accumulated as
// s + p·(1 − s), whose terms are all non-negative: with n clauses at
// most w wide, each leaf bound misses the exact value it stands for by
// a relative (4n + w)·2⁻⁵³ at most, so a leaf interval holds P(leaf)
// within that.
package core

import (
	"fmt"
	"strings"

	"repro/internal/formula"
)

// Kind enumerates d-tree node kinds.
type Kind uint8

// Node kinds.
const (
	LeafKind Kind = iota // a DNF leaf
	IndepOr              // ⊗
	IndepAnd             // ⊙
	ExclOr               // ⊕ (Shannon expansion)
)

func (k Kind) String() string {
	switch k {
	case LeafKind:
		return "leaf"
	case IndepOr:
		return "⊗"
	case IndepAnd:
		return "⊙"
	case ExclOr:
		return "⊕"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Node is a node of a (partial) d-tree. Leaves hold a DNF; inner nodes
// hold children. A complete d-tree has only singleton-clause leaves.
type Node struct {
	Kind     Kind
	Children []*Node
	Leaf     formula.DNF // for LeafKind
}

// NewLeaf returns a leaf node holding d.
func NewLeaf(d formula.DNF) *Node { return &Node{Kind: LeafKind, Leaf: d} }

// Complete reports whether the d-tree rooted at n is complete: every leaf
// holds at most one clause (Definition 4.2).
func (n *Node) Complete() bool {
	if n.Kind == LeafKind {
		return len(n.Leaf) <= 1
	}
	for _, c := range n.Children {
		if !c.Complete() {
			return false
		}
	}
	return true
}

// Size returns the number of nodes in the tree.
func (n *Node) Size() int {
	sz := 1
	for _, c := range n.Children {
		sz += c.Size()
	}
	return sz
}

// Depth returns the height of the tree (a single node has depth 1).
func (n *Node) Depth() int {
	d := 0
	for _, c := range n.Children {
		if cd := c.Depth(); cd > d {
			d = cd
		}
	}
	return d + 1
}

// CountKind returns the number of nodes of kind k in the tree. The paper
// reports that ~90% of nodes for tractable queries are ⊗ nodes; tests and
// experiments use this to verify that observation.
func (n *Node) CountKind(k Kind) int {
	c := 0
	if n.Kind == k {
		c = 1
	}
	for _, ch := range n.Children {
		c += ch.CountKind(k)
	}
	return c
}

// Probability computes the probability of the d-tree in one bottom-up pass
// (Proposition 4.3), using exact leaf probabilities. For multi-clause
// leaves the leaf probability is computed by brute force, so Probability
// is exact on any d-tree but only efficient on (near-)complete ones.
func (n *Node) Probability(s *formula.Space) float64 {
	p, _ := n.fold(func(d formula.DNF) (lo, hi float64) {
		if len(d) == 1 {
			p := d[0].Probability(s)
			return p, p
		}
		p := formula.BruteForceProbability(s, d)
		return p, p
	})
	return p
}

// Bounds computes lower and upper probability bounds of the d-tree in one
// bottom-up pass (Section V-B): leaf bounds come from the Independent
// heuristic, inner nodes combine children bounds monotonically.
func (n *Node) Bounds(s *formula.Space) (lo, hi float64) {
	return n.fold(func(d formula.DNF) (lo, hi float64) { return LeafBounds(s, d, true) })
}

// fold evaluates the tree bottom-up: leaf at the leaves, combine — the
// one statement of the ⊗ / ⊙ / ⊕ bound algebra — at the inner nodes.
func (n *Node) fold(leaf func(formula.DNF) (lo, hi float64)) (lo, hi float64) {
	if n.Kind == LeafKind {
		return leaf(n.Leaf)
	}
	los, his := make([]float64, len(n.Children)), make([]float64, len(n.Children))
	for i, c := range n.Children {
		los[i], his[i] = c.fold(leaf)
	}
	return combine(n.Kind, los, his)
}

// String renders the tree structure with variable names from s.
func (n *Node) String(s *formula.Space) string {
	var b strings.Builder
	n.render(s, &b, 0)
	return b.String()
}

func (n *Node) render(s *formula.Space, b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	if n.Kind == LeafKind {
		b.WriteString("{" + n.Leaf.String(s) + "}\n")
		return
	}
	b.WriteString(n.Kind.String() + "\n")
	for _, c := range n.Children {
		c.render(s, b, depth+1)
	}
}
