package core

import (
	"context"
	"errors"

	"repro/internal/formula"
)

// ErrBudget is returned when compilation exceeds the configured node
// budget before reaching the requested approximation.
var ErrBudget = errors.New("core: node budget exhausted before convergence")

// Compile exhaustively compiles d into a complete d-tree following the
// algorithm of Figure 1: subsumption removal, then independent-or,
// independent-and, and Shannon expansion, recursively. The result is
// equivalent to d (Proposition 4.5).
//
// Compile materializes the full tree and is intended for inspection,
// testing and small formulas; ExactCtx performs the same
// decompositions without materialization.
func Compile(s *formula.Space, d formula.DNF) *Node {
	n, _ := CompileBudget(s, d, 0)
	return n
}

// CompileBudget is Compile with a node budget; it returns ErrBudget when
// the tree would exceed maxNodes (0 means unlimited).
func CompileBudget(s *formula.Space, d formula.DNF, maxNodes int) (*Node, error) {
	st := newState(context.Background(), s, Options{MaxNodes: maxNodes})
	return st.compile(d, false, false)
}

// treeTooBig reports that the nodes counted so far no longer fit
// CompileBudget's maxNodes.
func (st *state) treeTooBig() bool {
	return st.opt.MaxNodes > 0 && st.nodes.Load() > int64(st.opt.MaxNodes)
}

// compile builds the complete d-tree of d: leafHead, then step until
// every leaf is a single clause. normalized and reduced are leafHead's
// construction flags.
func (st *state) compile(d formula.DNF, normalized, reduced bool) (*Node, error) {
	st.nodes.Add(1)
	if st.treeTooBig() {
		return nil, ErrBudget
	}
	d, _, leaf := st.leafHead(d, normalized, reduced)
	if leaf {
		if d.IsTrue() {
			d = formula.DNF{formula.Clause{}}
		}
		return NewLeaf(d), nil
	}
	var atoms []formula.Atom
	kind, subs, _ := st.stepAlone(d, &atoms)
	if kind == ExclOr {
		// step counted each branch's {x = a} leaf; the ⊙ node that
		// joins it to the branch's subtree is this compiler's own.
		st.nodes.Add(int64(len(subs)))
		if st.treeTooBig() {
			return nil, ErrBudget
		}
	}
	node := &Node{Kind: kind, Children: make([]*Node, len(subs))}
	for i, sub := range subs {
		c, err := st.compile(sub, true, kind == IndepOr)
		if err != nil {
			return nil, err
		}
		if kind == ExclOr {
			c = &Node{Kind: IndepAnd, Children: []*Node{NewLeaf(formula.DNF{formula.MustClause(atoms[i])}), c}}
		}
		node.Children[i] = c
	}
	return node, nil
}
