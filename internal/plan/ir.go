// Package plan is the query subsystem: a logical plan IR for
// conjunctive queries over probabilistic relations, a planner that
// decides *which confidence-computation algorithm answers a query*, and
// a pipelined physical runtime for the general case.
//
// The paper's system (SPROUT inside MayBMS, Section VII) is not a
// single evaluator but a chooser: hierarchical queries without
// self-joins get exact extensional safe plans, tractable
// inequality-join (IQ) queries get the sorted-scan algorithms, and only
// the residue pays for lineage materialization plus d-tree confidence
// computation. This package reproduces that architecture:
//
//	   IR (Scan/Select/EquiJoin/ThetaJoin/Project/GroupLineage)
//	   │
//	   ▼
//	Compile ── structural analysis (query graph, event independence)
//	   │
//	   ├── hierarchical, no self-joins → RouteSafe: extensional plan,
//	   │                                 one scan per leaf into
//	   │                                 sprout.Grouper
//	   ├── IQ chain / star pattern     → RouteIQ: sorted scans
//	   │                                 (sprout.ChainConfidence, …)
//	   └── otherwise                   → RouteLineage: pipelined
//	                                     operators build lineage
//	                                     DNFs for an engine.Evaluator
//
// The lineage runtime is streaming: operators are pull-based cursors,
// intermediate relations are never materialized (hash and nested-loop
// joins buffer only their build side), and every join-time clause merge
// is hash-consed through a formula.Interner so a clause produced by
// many tuple combinations is allocated once.
package plan

import (
	"fmt"

	"repro/internal/pdb"
)

// Node is a logical plan operator. Column references are positions into
// the referenced child's output schema (see Schema); joins concatenate
// their children's schemas left-then-right, like pdb.EquiJoin and
// pdb.ThetaJoin. Compile validates the whole tree (see Plan.Err).
type Node interface {
	isNode()
}

// Scan reads a base relation.
type Scan struct {
	Rel *pdb.Relation
}

// Select keeps the input tuples satisfying Pred. The predicate is
// opaque to the planner; a Select directly over a Scan (or over another
// such Select) is treated as a leaf filter and does not block the
// structural routes, anywhere else it forces the lineage route.
type Select struct {
	Input Node
	Pred  func(vals []pdb.Value) bool
}

// EquiJoin joins Left and Right on Left[LeftCol] = Right[RightCol].
// On, when set, is an opaque residual predicate over the two sides'
// tuples (evaluated after the equality); it forces the lineage route.
type EquiJoin struct {
	Left, Right       Node
	LeftCol, RightCol int
	On                func(left, right []pdb.Value) bool
}

// Less is the structured inequality Left[LeftCol] < Right[RightCol] of
// a ThetaJoin — the shape the IQ sorted-scan route recognizes.
type Less struct {
	LeftCol, RightCol int
}

// ThetaJoin joins Left and Right on an inequality. Exactly one of Less
// and Pred should drive the join: Less is the structured form the
// planner can analyze, Pred an opaque fallback (set both and they are
// conjoined). An opaque Pred forces the lineage route.
type ThetaJoin struct {
	Left, Right Node
	Less        *Less
	Pred        func(left, right []pdb.Value) bool
}

// Project narrows the schema to the given column positions, one output
// tuple per input tuple — no duplicate elimination, lineage unchanged.
type Project struct {
	Input Node
	Cols  []int
}

// GroupLineage is the duplicate-eliminating projection that terminates
// a query: tuples are grouped by the projected values and each group's
// lineage clauses become the answer's DNF. Empty Cols is the Boolean
// query (project away everything). GroupLineage is root-only (under an
// optional TopK/Threshold); Compile rejects one anywhere below.
type GroupLineage struct {
	Input Node
	Cols  []int
}

// TopK ranks its input's answers by confidence and keeps the K most
// probable (ties broken by answer order). It is root-only: the planner
// strips it off the plan root and routes the input underneath —
// structural routes short-circuit to an exact sort, the lineage route
// runs the anytime bound-separation scheduler (internal/rank). Compile
// rejects a TopK anywhere below the root.
type TopK struct {
	Input Node
	K     int
}

// Threshold keeps the answers whose confidence is at least Tau.
// Root-only, exactly like TopK.
type Threshold struct {
	Input Node
	Tau   float64
}

func (*Scan) isNode()         {}
func (*Select) isNode()       {}
func (*EquiJoin) isNode()     {}
func (*ThetaJoin) isNode()    {}
func (*Project) isNode()      {}
func (*GroupLineage) isNode() {}
func (*TopK) isNode()         {}
func (*Threshold) isNode()    {}

// Width returns the number of output columns of n. Width, Name and
// Schema are total: they run on trees Compile has not validated yet
// (the façade's builder calls them on adopted IR before Build), so a
// nil node, a nil-relation scan or a foreign type satisfying Node by
// embedding one of the IR structs reports width 0 instead of a panic.
func Width(n Node) int {
	switch t := n.(type) {
	case *Scan:
		if t.Rel == nil {
			return 0
		}
		return len(t.Rel.Cols)
	case *Select:
		return Width(t.Input)
	case *EquiJoin:
		return Width(t.Left) + Width(t.Right)
	case *ThetaJoin:
		return Width(t.Left) + Width(t.Right)
	case *Project:
		return len(t.Cols)
	case *GroupLineage:
		return len(t.Cols)
	case *TopK:
		return Width(t.Input)
	case *Threshold:
		return Width(t.Input)
	}
	return 0
}

// Name returns a deterministic, bounded display name for the relation n
// produces (pdb.DerivedName rules). Total over malformed trees, like
// Width: unknown node types name themselves by their Go type.
func Name(n Node) string {
	switch t := n.(type) {
	case *Scan:
		if t.Rel == nil {
			return "scan(<nil>)"
		}
		return t.Rel.Name
	case *Select:
		return pdb.DerivedName("σ", Name(t.Input))
	case *EquiJoin:
		return pdb.DerivedName("⋈", Name(t.Left), Name(t.Right))
	case *ThetaJoin:
		return pdb.DerivedName("⋈θ", Name(t.Left), Name(t.Right))
	case *Project:
		return pdb.DerivedName("π", Name(t.Input))
	case *GroupLineage:
		return pdb.DerivedName("πᵍ", Name(t.Input))
	case *TopK:
		return pdb.DerivedName("topk", Name(t.Input))
	case *Threshold:
		return pdb.DerivedName("σP≥τ", Name(t.Input))
	}
	return fmt.Sprintf("unknown(%T)", n)
}

// Schema returns the output column names of n. Joins qualify each
// side's columns with the side's Name, like pdb's join operators. Total
// over malformed trees, like Width: a nil or unknown node and a
// nil-relation scan have a nil schema, and an out-of-range projected
// column is named "col(c)".
func Schema(n Node) []string {
	switch t := n.(type) {
	case *Scan:
		if t.Rel == nil {
			return nil
		}
		return append([]string(nil), t.Rel.Cols...)
	case *Select:
		return Schema(t.Input)
	case *EquiJoin:
		return joinSchema(t.Left, t.Right)
	case *ThetaJoin:
		return joinSchema(t.Left, t.Right)
	case *Project:
		return projectSchema(Schema(t.Input), t.Cols)
	case *GroupLineage:
		return projectSchema(Schema(t.Input), t.Cols)
	case *TopK:
		return Schema(t.Input)
	case *Threshold:
		return Schema(t.Input)
	}
	return nil
}

// projectSchema resolves a projection's column names, naming
// out-of-range positions "col(c)" instead of panicking — Compile
// rejects such trees, but Schema may inspect them first.
func projectSchema(in []string, cols []int) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		if c < 0 || c >= len(in) {
			out[i] = fmt.Sprintf("col(%d)", c)
			continue
		}
		out[i] = in[c]
	}
	return out
}

func joinSchema(l, r Node) []string {
	ln, rn := Name(l), Name(r)
	ls, rs := Schema(l), Schema(r)
	out := make([]string, 0, len(ls)+len(rs))
	for _, c := range ls {
		out = append(out, ln+"."+c)
	}
	for _, c := range rs {
		out = append(out, rn+"."+c)
	}
	return out
}
