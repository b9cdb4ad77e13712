package core

import (
	"slices"

	"repro/internal/formula"
)

// varInfo is what one decomposition step knows about a variable of the
// fragment it analyses. Records are indexed by variable id and
// validated by stamp comparison against epochs of prepScratch.epochs,
// so nothing is cleared between steps. The ⊗ partition reads them
// first, under one epoch in both stamps; the scan that follows it on a
// connected fragment takes a fresh one.
type varInfo struct {
	stamp  uint32      // the variable occurs in the fragment (scan), or is in the union-find (⊗)
	mark   uint32      // member of the set being counted (⊙, ⊕), or its root has a group (⊗)
	occ    int32       // number of clauses containing the variable
	tag    int32       // position of its relation tag in stepScan.tags, -1 if untagged
	parent formula.Var // ⊗: union-find parent
	group  int32       // ⊗: component index of a root
}

// stepScan is the per-variable state of one decomposition step. The ⊗
// partition (components) runs its union-find over the records; on a
// connected fragment one pass (scanVars) then records, per variable,
// its occurrence count and relation, and the distinct variables and
// tags in first-seen order. independentAndParts and chooseVar both read
// it, so a step scans its fragment once. Cost follows the fragment: the
// record array is sized by the fragment's largest variable id (grown
// geometrically, never cleared), everything else by its distinct
// variables, tags or components.
type stepScan struct {
	info []varInfo

	vars     []formula.Var // distinct variables, first-seen order
	tags     []int32       // distinct relation tags, first-seen order; tags are caller-chosen, not dense
	total    []int32       // total[i]: distinct variables of tags[i]
	untagged bool          // some variable carries formula.NoTag
	cands    []formula.Var // iqVariable: candidates surviving the occurrence test
	counts   []int32       // components: clauses per component
}

// records returns the record array grown to cover variable ids up to
// top.
func (st *stepScan) records(top formula.Var) []varInfo {
	st.info = grow(st.info, int(top)+1)
	return st.info
}

// scanVars records the variables of d, whose largest variable is top,
// in sc.step. It must precede independentAndParts and chooseVar on the
// same d.
func (sc *prepScratch) scanVars(s *formula.Space, d formula.DNF, top formula.Var) {
	st := &sc.step
	info, e := st.records(top), sc.epochs(1)
	vars, tags, total := st.vars[:0], st.tags[:0], st.total[:0]
	st.untagged = false
	for _, c := range d {
		for _, a := range c {
			vi := &info[a.Var]
			if vi.stamp == e {
				vi.occ++
				continue
			}
			vi.stamp, vi.occ, vi.tag = e, 1, -1
			vars = append(vars, a.Var)
			tag := s.Tag(a.Var)
			if tag == formula.NoTag {
				st.untagged = true
				continue
			}
			pos := slices.Index(tags, tag)
			if pos < 0 {
				pos = len(tags)
				tags = append(tags, tag)
				total = append(total, 0)
			}
			total[pos]++
			vi.tag = int32(pos)
		}
	}
	st.vars, st.tags, st.total = vars, tags, total
}

// chooseVar picks the Shannon-expansion variable for d, the paper's
// order (Sections IV and VI-B): the IQ-query rule of Lemma 6.8, which
// yields linear-size complete d-trees for tractable inequality queries,
// and otherwise a variable occurring in the most clauses. d is
// non-empty, has at least one variable, and is the fragment sc.scanVars
// last scanned.
func chooseVar(d formula.DNF, sc *prepScratch) formula.Var {
	if v, ok := iqVariable(d, sc); ok {
		return v
	}
	return mostFrequentVar(sc)
}

// mostFrequentVar returns a variable occurring in the most clauses of
// the scanned fragment, the smallest id among equals.
func mostFrequentVar(sc *prepScratch) formula.Var {
	st := &sc.step
	best := formula.Var(-1)
	bestN := int32(-1)
	for _, v := range st.vars {
		if n := st.info[v].occ; n > bestN || (n == bestN && v < best) {
			best, bestN = v, n
		}
	}
	return best
}

// iqVariable implements the variable choice of Lemma 6.8 for DNFs of IQ
// queries: it looks for a variable v from relation Ri that occurs in
// clauses of Φ together with all variables of every other relation Rj.
// Eliminating such a variable first makes its co-factor subsume Φ|v, which
// is what keeps the d-tree polynomial for IQ queries (Theorem 6.9).
//
// Following the paper, it takes the distinct variables per relation in Φ
// from the scan, then redoes the count restricted to clauses containing a
// candidate x; if x's clauses reach every variable of every relation
// other than x's own, x is chosen. Candidates are tried by (occurrences
// descending, id ascending), so the successful variable (which by
// construction co-occurs with many variables) is found early and the
// choice does not depend on clause order. It reports false when a
// variable is untagged or fewer than two relations are present.
func iqVariable(d formula.DNF, sc *prepScratch) (formula.Var, bool) {
	st := &sc.step
	if st.untagged || len(st.tags) < 2 {
		return 0, false
	}
	info := st.info

	// A variable co-occurring with all others must appear in at least as
	// many clauses as the largest other relation has variables — the
	// largest total, or the runner-up for variables of the largest
	// relation itself. The test prunes most candidates, so only the
	// survivors are sorted.
	top, topN, secondN := int32(-1), int32(-1), int32(-1)
	for i, n := range st.total {
		if n > topN {
			top, topN, secondN = int32(i), n, topN
		} else if n > secondN {
			secondN = n
		}
	}
	cands := st.cands[:0]
	for _, v := range st.vars {
		maxOther := topN
		if info[v].tag == top {
			maxOther = secondN
		}
		if info[v].occ >= maxOther {
			cands = append(cands, v)
		}
	}
	st.cands = cands
	slices.SortFunc(cands, func(a, b formula.Var) int {
		if oa, ob := info[a].occ, info[b].occ; oa != ob {
			return int(ob - oa)
		}
		return int(a - b)
	})

	for _, x := range cands {
		// Distinct variables of the other relations reached by x's
		// clauses; a per-relation count can only fall short of its total,
		// so the sums agree exactly when every relation's count does.
		xtag := info[x].tag
		want := len(st.vars) - int(st.total[xtag])
		e := sc.epochs(1)
		reached := 0
		for _, c := range d {
			if _, ok := c.Lookup(x); !ok {
				continue
			}
			for _, a := range c {
				if vi := &info[a.Var]; vi.mark != e && vi.tag != xtag {
					vi.mark = e
					reached++
				}
			}
		}
		if reached == want {
			return x, true
		}
	}
	return 0, false
}
