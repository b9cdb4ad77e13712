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
//
// The package has one d-tree compiler, the Refiner: it materializes the
// partial d-tree and expands one open leaf per step by the first
// applicable rule of Figure 1 (figure1.go). At ε > 0 (ApproxCtx,
// internal/rank) it refines the leaf whose interval can move the
// root's the most, until Proposition 5.8's condition holds. Exact
// evaluation (ExactCtx, "d-tree(error 0)") is the same compilation run
// to exhaustion in its exact mode: no leaf bounds, depth-first order,
// each node combined once when its last child completes, and its
// completed subtree released.
package core

import "fmt"

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
