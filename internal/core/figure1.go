package core

import "repro/internal/formula"

// This file is Figure 1, stated once. Every compiler in the package —
// depth-first explore and Refiner.refine (through decompose), exact
// evaluation (exactDecompose) and Compile — runs a fragment through
// leafHead and, when it is not a leaf yet, through step; they differ
// only in what they do with the children (prepare them, evaluate them,
// build Nodes). The rule lists as they ran before the pooled kernels
// are the oracles of oracle_test.go.

// leafHead brings d into the form the rules of Figure 1 apply to —
// duplicate-free, then subsumption-reduced (rule 1) — and settles the
// fragments that are d-tree leaves already: true, false and the single
// clause. The flags declare what d has by construction, so the passes
// that would be content no-ops are skipped: normalized means
// duplicate-free, reduced means no clause subsumes another. Children of
// step earn them structurally — component Selects and independent-and
// projections of a normalized parent are duplicate-free, Shannon
// restrictions are deduplicated on the way out, and component Selects
// of a reduced parent are reduced (a subsuming pair shares the subsumed
// clause's variables, hence its component).
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
	if !st.opt.DisableSubsumption && !reduced {
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
	st.work.Add(ops)
	return inclusionExclusion(st.s, d), ops, true
}

// step applies the first applicable rule of Figure 1 to d, a
// multi-clause fragment leafHead has passed, given its component
// partition: ⊗ by connected components, else ⊙ by factorization, else ⊕
// by Shannon expansion on the Lemma 6.8 / most-frequent variable. It
// returns the node kind, the child DNFs and the per-child weight
// (P(x = a) under ⊕, 1 otherwise). Children are normalized by
// construction, and reduced too under ⊗ (see leafHead). Each surviving
// ⊕ branch counts one node here, before any child is visited: the
// {x = a} leaf of its ⊙ companion. Compile alone needs those atoms and
// passes a slice to receive them; the evaluators pass nil and the step
// allocates nothing for them. The ⊙ / ⊕ analysis runs on sc.
func (st *state) step(d formula.DNF, comps [][]int, sc *prepScratch, atoms *[]formula.Atom) (Kind, []formula.DNF, []float64) {
	if len(comps) > 1 {
		subs := make([]formula.DNF, len(comps))
		for i, idx := range comps {
			subs[i] = d.Select(idx)
		}
		return IndepOr, subs, ones(len(subs))
	}
	sc.scanVars(st.s, d)
	if parts := independentAndParts(d, sc); parts != nil {
		return IndepAnd, parts, ones(len(parts))
	}
	x := chooseVar(d, st.opt.Order, sc)
	dom := st.s.DomainSize(x)
	subs := make([]formula.DNF, 0, dom)
	mult := make([]float64, 0, dom)
	for a := 0; a < dom; a++ {
		sub := restrictPrepared(d, x, formula.Val(a))
		if sub.IsFalse() {
			continue
		}
		at := formula.Atom{Var: x, Val: formula.Val(a)}
		st.nodes.Add(1)
		subs = append(subs, sub)
		mult = append(mult, st.s.P(at))
		if atoms != nil {
			*atoms = append(*atoms, at)
		}
	}
	return ExclOr, subs, mult
}

// stepAlone is step for the recursive compilers (exact evaluation,
// Compile), which hold no fragment-cache entry to memoize the step on:
// partition and analysis run on one pooled scratch that is back in the
// pool before the caller recurses, so a compilation holds one scratch
// however deep it is.
func (st *state) stepAlone(d formula.DNF, atoms *[]formula.Atom) (Kind, []formula.DNF, []float64) {
	sc := prepPool.Get().(*prepScratch)
	defer prepPool.Put(sc)
	return st.step(d, d.ComponentsScratch(&sc.comp), sc, atoms)
}

// ones returns the weights of an independent-or / independent-and
// node: n ones.
func ones(n int) []float64 {
	mult := make([]float64, n)
	for i := range mult {
		mult[i] = 1
	}
	return mult
}
