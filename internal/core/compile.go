package core

import (
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
// testing and small formulas; Exact and Approx perform the same
// decompositions without materialization.
func Compile(s *formula.Space, d formula.DNF, order VarOrder) *Node {
	n, _ := compileBudget(s, d, order, &budget{limit: 0})
	return n
}

// CompileBudget is Compile with a node budget; it returns ErrBudget when
// the tree would exceed maxNodes (0 means unlimited).
func CompileBudget(s *formula.Space, d formula.DNF, order VarOrder, maxNodes int) (*Node, error) {
	return compileBudget(s, d, order, &budget{limit: maxNodes})
}

type budget struct {
	used  int
	limit int
}

func (b *budget) take(n int) bool {
	b.used += n
	return b.limit <= 0 || b.used <= b.limit
}

func compileBudget(s *formula.Space, d formula.DNF, order VarOrder, bud *budget) (*Node, error) {
	if !bud.take(1) {
		return nil, ErrBudget
	}
	d = d.Normalize()
	if d.IsTrue() {
		return NewLeaf(formula.DNF{formula.Clause{}}), nil
	}
	// Step 1: remove subsumed clauses.
	d = d.RemoveSubsumed()
	if len(d) == 1 {
		return NewLeaf(d), nil
	}

	// Step 2: independent-or.
	if comps := d.Components(); len(comps) > 1 {
		node := &Node{Kind: IndepOr, Children: make([]*Node, 0, len(comps))}
		for _, idx := range comps {
			c, err := compileBudget(s, d.Select(idx), order, bud)
			if err != nil {
				return nil, err
			}
			node.Children = append(node.Children, c)
		}
		return node, nil
	}

	// Step 3: independent-and.
	parts, x := partsOrVar(s, d, order)
	if parts != nil {
		node := &Node{Kind: IndepAnd, Children: make([]*Node, 0, len(parts))}
		for _, p := range parts {
			c, err := compileBudget(s, p, order, bud)
			if err != nil {
				return nil, err
			}
			node.Children = append(node.Children, c)
		}
		return node, nil
	}

	// Step 4: Shannon expansion.
	node := &Node{Kind: ExclOr}
	for a := 0; a < s.DomainSize(x); a++ {
		sub := d.Restrict(x, formula.Val(a))
		if sub.IsFalse() {
			continue
		}
		atomLeaf := NewLeaf(formula.DNF{formula.MustClause(formula.Atom{Var: x, Val: formula.Val(a)})})
		if !bud.take(2) { // the ⊙ node and its atom leaf
			return nil, ErrBudget
		}
		child, err := compileBudget(s, sub, order, bud)
		if err != nil {
			return nil, err
		}
		node.Children = append(node.Children, &Node{
			Kind:     IndepAnd,
			Children: []*Node{atomLeaf, child},
		})
	}
	if len(node.Children) == 0 {
		// d had clauses but every restriction vanished: impossible for a
		// normalized non-empty DNF, since each clause survives under its
		// own atom's value.
		panic("core: Shannon expansion produced no branches")
	}
	return node, nil
}
