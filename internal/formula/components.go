package formula

// Connected-component partitioning of a DNF's clauses — the ⊗
// (independent-or) decomposition test the d-tree compiler runs on every
// leaf it refines. The union-find here is iterative (path halving), so
// arbitrarily long variable chains cannot grow the goroutine stack, and
// all per-call bookkeeping, the returned partition included, lives in
// an epoch-stamped CompScratch that callers on a hot path reuse across
// calls. The compiler consumes each partition within the step that
// computed it (the step's outcome, not the partition, is what it
// memoizes on the prepared fragment).

// CompScratch holds the reusable union-find buffers of
// DNF.ComponentsScratch. The zero value is ready to use; a scratch may
// be reused across DNFs and Spaces but not concurrently.
type CompScratch struct {
	parent []Var    // union-find forest over variable ids
	group  []int32  // root var -> output group index, stamped
	stamp  []uint32 // epoch stamps validating parent entries
	gstamp []uint32 // epoch stamps validating group entries
	epoch  uint32

	counts []int   // per-group clause counts
	arena  []int   // the partition's clause indices, group after group
	out    [][]int // the partition's group headers, slices of arena
}

// grow ensures the scratch covers variable ids up to maxVar and starts
// a fresh epoch, recycling stale entries without clearing them.
func (sc *CompScratch) grow(maxVar Var) {
	n := int(maxVar) + 1
	if len(sc.parent) < n {
		sc.parent = append(sc.parent, make([]Var, n-len(sc.parent))...)
		sc.group = append(sc.group, make([]int32, n-len(sc.group))...)
		sc.stamp = append(sc.stamp, make([]uint32, n-len(sc.stamp))...)
		sc.gstamp = append(sc.gstamp, make([]uint32, n-len(sc.gstamp))...)
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		clear(sc.stamp)
		clear(sc.gstamp)
		sc.epoch = 1
	}
}

// find returns the root of v's set, initializing v lazily on first
// sight this epoch. Path halving: every probed node is re-pointed at
// its grandparent, so chains shorten geometrically without recursion
// and the root — which compression never changes — is identical to the
// one full path compression would return.
func (sc *CompScratch) find(v Var) Var {
	if sc.stamp[v] != sc.epoch {
		sc.stamp[v] = sc.epoch
		sc.parent[v] = v
		return v
	}
	for sc.parent[v] != v {
		sc.parent[v] = sc.parent[sc.parent[v]]
		v = sc.parent[v]
	}
	return v
}

// Components partitions the clause indices of d into groups whose variable
// sets are connected in the dependency graph of d (clauses sharing a
// variable are connected). Each group is an independent sub-DNF; this is
// the independent-or ⊗ decomposition. Groups are returned in order of
// their first clause.
func (d DNF) Components() [][]int {
	var sc CompScratch
	return d.ComponentsScratch(&sc)
}

// ComponentsScratch is Components with caller-provided scratch buffers,
// for hot paths that partition many DNFs: once the buffers have grown it
// allocates nothing. The partition lives in sc and is valid until sc's
// next use.
func (d DNF) ComponentsScratch(sc *CompScratch) [][]int {
	maxVar := Var(-1)
	for _, c := range d {
		if len(c) > 0 && c[len(c)-1].Var > maxVar {
			maxVar = c[len(c)-1].Var
		}
	}
	sc.grow(maxVar)
	for _, c := range d {
		for i := 1; i < len(c); i++ {
			ra, rb := sc.find(c[0].Var), sc.find(c[i].Var)
			if ra != rb {
				sc.parent[ra] = rb
			}
		}
	}

	// Assign group ids in order of first clause and count group sizes,
	// then carve the index groups out of the scratch arena. Empty clauses
	// are independent of everything; each forms its own component at the
	// end (the compiler short-circuits "true" before reaching here, but
	// Components stays total).
	nGroups := 0
	empties := 0
	for _, c := range d {
		if len(c) == 0 {
			empties++
			continue
		}
		r := sc.find(c[0].Var)
		if sc.gstamp[r] != sc.epoch {
			sc.gstamp[r] = sc.epoch
			sc.group[r] = int32(nGroups)
			nGroups++
		}
	}
	if cap(sc.arena) < len(d) {
		sc.arena = make([]int, len(d))
	}
	if n := nGroups + empties; cap(sc.out) < n {
		sc.out = make([][]int, n)
	}
	arena, out := sc.arena[:len(d)], sc.out[:nGroups]
	if nGroups+empties == 1 {
		// Single component (the common refined-leaf case): one group
		// holding every clause index.
		for i := range arena {
			arena[i] = i
		}
		return append(out[:0], arena)
	}
	if cap(sc.counts) < nGroups {
		sc.counts = make([]int, nGroups)
	}
	counts := sc.counts[:nGroups]
	clear(counts)
	for _, c := range d {
		if len(c) > 0 {
			counts[sc.group[sc.find(c[0].Var)]]++
		}
	}
	off := 0
	for g, n := range counts {
		out[g] = arena[off : off : off+n]
		off += n
	}
	for i, c := range d {
		if len(c) == 0 {
			continue
		}
		g := sc.group[sc.find(c[0].Var)]
		out[g] = append(out[g], i)
	}
	for i, c := range d {
		if len(c) == 0 {
			arena[off] = i
			out = append(out, arena[off:off+1:off+1])
			off++
		}
	}
	return out
}
