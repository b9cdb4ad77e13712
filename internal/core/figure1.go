package core

import "repro/internal/formula"

// This file is Figure 1, stated once. The package's one compiler,
// Refiner.refine (through decompose), runs a fragment through leafHead
// and, when it is not a leaf yet, through step, at every Eps: in exact
// mode the children are prepared by leafHead alone, at Eps > 0 with
// their leaf bounds too. The rule lists as they ran before the pooled
// kernels are the oracles of oracle_test.go.

// leafHead brings d into the form the rules of Figure 1 apply to —
// duplicate-free, then subsumption-reduced (rule 1) — and settles the
// fragments that are d-tree leaves already: true, false and the single
// clause. The flags declare what d has by construction, so the passes
// that would be content no-ops are skipped: normalized means
// duplicate-free, reduced means no clause subsumes another. Children of
// step earn them structurally — components and independent-and
// projections of a normalized parent are duplicate-free, Shannon
// restrictions are deduplicated on the way out, and components of a
// reduced parent are reduced (a subsuming pair shares the subsumed
// clause's variables, hence its component). The passes that do run
// copy nothing when they change nothing (an answer's lineage the plan
// has deduplicated already, a Shannon branch with no subsumed clause):
// the prepared form is then d itself — a caller's DNF or a step block,
// read-only either way.
//
// Callers charge len(d) to the work budget first, where their own
// budget check or cache replay needs it.
func (st *state) leafHead(d formula.DNF, normalized, reduced bool) (prepared formula.DNF, p float64, leaf bool) {
	if !normalized {
		d = d.Normalize()
	}
	if d.IsTrue() {
		return d, 1, true
	}
	if d.IsFalse() {
		return d, 0, true
	}
	if !reduced {
		d = d.RemoveSubsumed()
	}
	if len(d) == 1 {
		return d, d[0].Probability(st.s), true
	}
	return d, 0, false
}

// smallExact is the evaluators' shortcut past the rules: a fragment of
// at most incExcMaxClauses clauses is summed by inclusion–exclusion,
// its 2^len(d) terms charged to the work budget and returned as ops.
func (st *state) smallExact(d formula.DNF) (p float64, ops int64, ok bool) {
	if len(d) > incExcMaxClauses {
		return 0, 0, false
	}
	ops = int64(1) << len(d)
	st.work += ops
	return inclusionExclusion(st.s, d), ops, true
}

// step applies the first applicable rule of Figure 1 to d, a
// multi-clause fragment leafHead has passed: ⊗ by connected components,
// else ⊙ by factorization, else ⊕ by Shannon expansion on the Lemma 6.8
// / most-frequent variable. It returns the node kind, the child DNFs
// and the per-child weight (P(x = a) under ⊕, the shared ones
// otherwise). Children are normalized by construction, and reduced too
// under ⊗ (see leafHead).
//
// The children of ⊗ and ⊕ are written into one fresh block per step
// (⊙'s parts into the projection blocks of factor.go), every child DNF
// and every clause ⊕ shortened sliced with cap == len, so an append to
// one can never reach another. The blocks are never reused: FragCache
// keys, entries' D and recorded decisions alias them. The child list
// itself is transient — it lives in sc until sc's next step.
//
// Each surviving ⊕ branch counts one node here, before any child is
// visited: the {x = a} leaf the branch's restriction is conditioned
// on, which the tree does not materialize (its probability is the
// branch weight). The analysis runs on sc, over per-variable records
// that cover d's largest variable.
func (st *state) step(d formula.DNF, sc *prepScratch) (Kind, []formula.DNF, []float64) {
	top := maxVar(d)
	if subs := sc.components(d, top); subs != nil {
		return IndepOr, subs, ones(len(subs))
	}
	sc.scanVars(st.s, d, top)
	if parts := independentAndParts(d, sc); parts != nil {
		return IndepAnd, parts, ones(len(parts))
	}
	return st.shannon(d, chooseVar(d, sc), sc)
}

// components is step's ⊗ rule: the connected components of d's
// variable graph (clauses sharing a variable are connected), in order
// of their first clause, each listing its clauses in d's order and
// sliced from one fresh block. It returns nil, allocating nothing, when
// d is connected. d has no empty clause and no variable above top. The
// union-find over the step's records is iterative (path halving), so
// however long a variable chain is, it cannot grow the goroutine stack.
func (sc *prepScratch) components(d formula.DNF, top formula.Var) []formula.DNF {
	st := &sc.step
	info, e := st.records(top), sc.epochs(1)
	for _, c := range d {
		for _, a := range c[1:] {
			if ra, rb := st.find(c[0].Var, e), st.find(a.Var, e); ra != rb {
				info[ra].parent = rb
			}
		}
	}
	// Number the components in order of first clause, then size each
	// one's share of the block and deal the clauses out.
	n := int32(0)
	for _, c := range d {
		if vi := &info[st.find(c[0].Var, e)]; vi.mark != e {
			vi.mark, vi.group = e, n
			n++
		}
	}
	if n == 1 {
		return nil
	}
	counts := grow(st.counts, int(n))
	clear(counts)
	for _, c := range d {
		counts[info[st.find(c[0].Var, e)].group]++
	}
	block, subs := make(formula.DNF, len(d)), sc.subs[:0]
	off := int32(0)
	for _, k := range counts {
		subs = append(subs, block[off:off:off+k])
		off += k
	}
	for _, c := range d {
		g := info[st.find(c[0].Var, e)].group
		subs[g] = append(subs[g], c)
	}
	st.counts, sc.subs = counts, subs
	return subs
}

// find returns the root of v's set under epoch e, initializing v lazily
// on first sight. Path halving: every probed node is re-pointed at its
// grandparent, so chains shorten geometrically without recursion.
func (st *stepScan) find(v formula.Var, e uint32) formula.Var {
	info := st.info
	if info[v].stamp != e {
		info[v].stamp, info[v].parent = e, v
		return v
	}
	for info[v].parent != v {
		info[v].parent = info[info[v].parent].parent
		v = info[v].parent
	}
	return v
}

// shannon is step's ⊕ rule: the restrictions d|x=a of every value a
// that leaves a clause, with weights P(x = a). A clause without x
// appears in every branch and is shared with d; a clause with x = a
// appears in branch a alone, shortened by one atom. A counting pass
// sizes the header and atom blocks exactly. A branch that shortened a
// clause can hold duplicates (d is duplicate-free); they are removed
// in place, first occurrences first, which is DNF.Restrict's output
// clause for clause.
func (st *state) shannon(d formula.DNF, x formula.Var, sc *prepScratch) (Kind, []formula.DNF, []float64) {
	sc.xval = grow(sc.xval, len(d))
	xv := sc.xval
	without, with, natoms := 0, 0, 0
	for i, c := range d {
		v, ok := c.Lookup(x)
		if !ok {
			xv[i] = -1
			without++
			continue
		}
		xv[i] = v
		with++
		natoms += len(c) - 1
	}
	dom := st.s.DomainSize(x)
	block := make(formula.DNF, dom*without+with)
	atomBlock := make([]formula.Atom, 0, natoms)
	subs, mult := sc.subs[:0], make([]float64, 0, dom)
	next := 0 // block headers in use
	for a := 0; a < dom; a++ {
		start, shrank := next, false
		for i, c := range d {
			switch xv[i] {
			case -1:
				block[next] = c
			case formula.Val(a):
				from := len(atomBlock)
				for _, at := range c {
					if at.Var != x {
						atomBlock = append(atomBlock, at)
					}
				}
				block[next] = formula.Clause(atomBlock[from:len(atomBlock):len(atomBlock)])
				shrank = true
			default:
				continue
			}
			next++
		}
		sub := block[start:next:next]
		if sub.IsFalse() {
			continue
		}
		if shrank && len(sub) > 1 {
			sub = sub.Dedup()
			next = start + len(sub)
			sub = sub[:len(sub):len(sub)]
		}
		st.nodes++
		subs = append(subs, sub)
		mult = append(mult, st.s.P(formula.Atom{Var: x, Val: formula.Val(a)}))
	}
	sc.subs = subs
	return ExclOr, subs, mult
}

// sharedOnes backs ones: filled at start-up, never written after.
var sharedOnes = func() []float64 {
	s := make([]float64, 256)
	for i := range s {
		s[i] = 1
	}
	return s
}()

// ones returns the weights of an independent-or / independent-and
// node: n ones. Up to 256 they are one slice shared by every such node
// and decision, so callers only read them.
func ones(n int) []float64 {
	if n <= len(sharedOnes) {
		return sharedOnes[:n:n]
	}
	mult := make([]float64, n)
	for i := range mult {
		mult[i] = 1
	}
	return mult
}
