// Package pdb implements the probabilistic-database substrate the paper's
// query workloads run on (Section VI-A): tuple-independent and
// block-independent-disjoint (BID) tables over a shared probability
// space, and a lineage-carrying positive relational algebra whose
// answers are DNF formulas — the inputs to confidence computation.
//
// Conjunctive query plans keep one lineage clause per intermediate tuple;
// the final projection groups tuples by answer value, turning the clause
// sets into answer DNFs, exactly the relational encoding of DNFs the
// paper assumes.
//
// Queries are stated as internal/plan IR and run by its planner. The
// eager operators here (algebra.go) are the reference it is checked
// against: the plan tests drive them through an IR interpreter
// (plan/oracle_test.go), and they back the Figure 5 reproduction
// (figure5_test.go).
package pdb

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/formula"
)

// Value is an attribute value. Workload generators intern strings to
// integers, so a single machine word per attribute suffices.
type Value int64

// Tuple is a row with its lineage clause (a conjunction of atomic
// events). Deterministic tuples carry the empty clause ⊤.
type Tuple struct {
	Vals []Value
	Lin  formula.Clause
}

// Relation is a named list of tuples over a fixed schema.
//
// The planner memoizes a summary of the tuples' lineage on the relation
// (DisjointLineage). Appending to Tups or reslicing it is detected and
// the summary recomputed, but Tups must not be edited in place — a
// tuple's Vals or Lin rewritten — once the relation has been queried.
// A Relation must not be copied once queried (go vet's copylocks check
// enforces it).
type Relation struct {
	Name string
	Cols []string
	Tups []Tuple

	summary atomic.Pointer[lineageSummary]
}

// lineageSummary is what DisjointLineage memoizes, keyed on the Tups
// slice it was computed from (its length and first element).
type lineageSummary struct {
	n        int
	first    *Tuple
	lo, hi   formula.Var
	disjoint bool
}

// DisjointLineage reports whether no variable occurs twice among the
// relation's lineage atoms — in particular in two of its tuples — and
// the closed range [lo, hi] of the variables that occur (lo > hi when
// none does, as for a deterministic relation). Tuple-independent
// relations, BID relations whose blocks have one alternative, and any
// subset of them are disjoint. The answer is computed from the tuples
// once and memoized; concurrent first calls may each compute it, and
// agree.
func (r *Relation) DisjointLineage() (lo, hi formula.Var, ok bool) {
	var first *Tuple
	if len(r.Tups) > 0 {
		first = &r.Tups[0]
	}
	s := r.summary.Load()
	if s == nil || s.n != len(r.Tups) || s.first != first {
		s = summarize(r.Tups)
		s.first = first
		r.summary.Store(s)
	}
	return s.lo, s.hi, s.disjoint
}

// summarize computes a lineageSummary: one pass for the variable range,
// one marking each variable in a bitset over that range.
func summarize(tups []Tuple) *lineageSummary {
	s := &lineageSummary{n: len(tups), lo: math.MaxInt32, hi: -1, disjoint: true}
	for i := range tups {
		for _, at := range tups[i].Lin {
			s.lo, s.hi = min(s.lo, at.Var), max(s.hi, at.Var)
		}
	}
	if s.lo > s.hi {
		return s
	}
	seen := make([]uint64, (int(s.hi-s.lo)>>6)+1)
	for i := range tups {
		for _, at := range tups[i].Lin {
			d := int(at.Var - s.lo)
			w, bit := d>>6, uint64(1)<<(d&63)
			if seen[w]&bit != 0 {
				s.disjoint = false
				return s
			}
			seen[w] |= bit
		}
	}
	return s
}

// ColIndex returns the position of the named column, or -1.
func (r *Relation) ColIndex(name string) int {
	for i, c := range r.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

// MustCol is ColIndex that panics on unknown columns; schema errors in
// workload definitions are programming errors.
func (r *Relation) MustCol(name string) int {
	i := r.ColIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("pdb: relation %s has no column %q", r.Name, name))
	}
	return i
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.Tups) }

// NewDeterministic builds a relation whose tuples are certain (lineage ⊤).
func NewDeterministic(name string, cols []string, rows [][]Value) *Relation {
	r := &Relation{Name: name, Cols: cols}
	for _, row := range rows {
		r.Tups = append(r.Tups, Tuple{Vals: row})
	}
	return r
}

// NewTupleIndependent builds a tuple-independent relation: each row is
// present with its own probability, via a fresh Boolean variable tagged
// with the given relation tag (tags drive ⊙ factorization and the IQ
// variable order in the d-tree compiler). Row i's variable is named
// "<name>#<i>" by one naming run, and every tuple's lineage is a slice
// of one atom block: construction allocates the same few objects at any
// row count.
func NewTupleIndependent(s *formula.Space, name string, cols []string, rows [][]Value, probs []float64, tag int32) *Relation {
	if len(rows) != len(probs) {
		// invariant: relation construction happens at load time from
		// generator/workload code; a length mismatch is a programming
		// error, never runtime input.
		panic("pdb: rows and probs length mismatch")
	}
	r := &Relation{Name: name, Cols: cols}
	if len(rows) == 0 {
		return r
	}
	s.Grow(len(rows), 2*len(rows))
	first := formula.Var(s.NumVars())
	r.Tups = make([]Tuple, len(rows))
	atoms := make([]formula.Atom, len(rows))
	for i, row := range rows {
		atoms[i] = formula.Pos(s.AddBoolTagged(probs[i], tag))
		r.Tups[i] = Tuple{Vals: row, Lin: atoms[i : i+1 : i+1]}
	}
	s.NameRun(first, len(rows), name+"#", 0)
	return r
}

// BIDAlternative is one alternative of a BID block: a row and its
// probability. Alternatives of one block are mutually exclusive;
// distinct blocks are independent.
type BIDAlternative struct {
	Vals []Value
	Prob float64
}

// NewBID builds a block-independent-disjoint relation (Figure 5(b)). Each
// block becomes one discrete random variable; alternative i of a block is
// annotated with the atom (block = i). If a block's probabilities sum to
// less than 1, the remainder is the (unannotated) probability that no
// alternative is present. Block b's variable is named "<name>/blk<b>",
// by one naming run per stretch of non-empty blocks, and every tuple's
// lineage is a slice of one atom block.
func NewBID(s *formula.Space, name string, cols []string, blocks [][]BIDAlternative, tag int32) *Relation {
	r := &Relation{Name: name, Cols: cols}
	vars, alts, widest := 0, 0, 0
	for _, block := range blocks {
		if len(block) > 0 {
			vars++
			alts += len(block)
			widest = max(widest, len(block))
		}
	}
	if alts == 0 {
		return r
	}
	s.Grow(vars, alts+vars)
	r.Tups = make([]Tuple, 0, alts)
	atoms := make([]formula.Atom, 0, alts)
	dist := make([]float64, 0, widest+1)
	prefix := name + "/blk"
	// The open naming run: blocks runStart… hold variables runFirst….
	runFirst, runStart, runLen := formula.Var(0), 0, 0
	for bi, block := range blocks {
		if len(block) == 0 {
			s.NameRun(runFirst, runLen, prefix, runStart)
			runLen = 0
			continue
		}
		dist = dist[:0]
		sum := 0.0
		for _, alt := range block {
			dist = append(dist, alt.Prob)
			sum += alt.Prob
		}
		if rest := 1 - sum; rest > 1e-12 {
			dist = append(dist, rest)
		}
		v := s.AddVarTagged(tag, dist...)
		if runLen == 0 {
			runFirst, runStart = v, bi
		}
		runLen++
		for ai, alt := range block {
			atoms = append(atoms, formula.Atom{Var: v, Val: formula.Val(ai)})
			r.Tups = append(r.Tups, Tuple{Vals: alt.Vals, Lin: atoms[len(atoms)-1 : len(atoms) : len(atoms)]})
		}
	}
	s.NameRun(runFirst, runLen, prefix, runStart)
	return r
}
