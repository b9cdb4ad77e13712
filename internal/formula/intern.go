package formula

import "repro/internal/obs"

// Interner hash-conses clauses: structurally equal clauses returned from
// MergeInterned share one canonical backing array. The pipelined query
// runtime routes every join-time clause merge through an Interner, so a
// clause produced by many different tuple combinations — the common case
// once duplicate-eliminating projections group lineage — is materialized
// exactly once, and later DNF normalization compares mostly-identical
// slices.
//
// The canonical clauses are indexed by one clauseTable that persists
// and doubles as they accumulate, and their atoms live in shared arena
// blocks: a hit reads one slot and the candidate, a miss allocates
// nothing but (now and then) the next block.
//
// An Interner is not safe for concurrent use; each query pipeline owns
// one.
type Interner struct {
	t       clauseTable
	clauses []Clause // canonical instances, in first-seen order
	arena   []Atom   // free tail of the current block
	hits    int64
}

// maxArenaBlock caps the blocks the Interner allocates atoms in. A
// block has room for as many clauses again as the Interner holds, so a
// pooled one that only ever saw a small query pins a small block.
const maxArenaBlock = 1 << 12

// NewInterner returns an empty clause interner.
func NewInterner() *Interner { return new(Interner) }

// MergeInterned returns the canonical instance of the conjunction a ∧ b,
// with ok = false if the clauses are inconsistent. The merged clause is
// only materialized when it is not already interned: the candidate
// lookup hashes the would-be merge in place (XOR of the distinct atom
// codes) and verifies structurally against the stored clauses.
func (in *Interner) MergeInterned(a, b Clause) (Clause, bool) {
	h, n, ok := mergeHash(a, b)
	if !ok {
		return nil, false
	}
	if 2*(len(in.clauses)+1) > len(in.t.slots) {
		in.grow()
	}
	pos, i := in.t.next(h, h)
	for ; pos >= 0; pos, i = in.t.next(h, i) {
		if cand := in.clauses[pos]; len(cand) == n && mergeEqual(cand, a, b) {
			in.hits++
			return cand, true
		}
	}
	if len(in.arena) < n {
		in.arena = make([]Atom, max(n, min(maxArenaBlock, n*(len(in.clauses)+8))))
	}
	merged, _ := appendMerge(in.arena[:0:n], a, b) // consistent: mergeHash said so
	in.arena = in.arena[n:]
	in.t.put(h, i, len(in.clauses))
	in.clauses = append(in.clauses, merged)
	return merged, true
}

// grow doubles the table and re-seats every clause.
func (in *Interner) grow() {
	in.t.slots = make([]uint64, max(minTableSlots, 2*len(in.t.slots)))
	for pos, c := range in.clauses {
		in.t.add(c.Hash(), pos)
	}
}

// CacheStats reports the interner's traffic in the engine-wide unified
// shape: Hits counts canonical-instance reuses; every first-seen
// clause is both a miss and a stored entry (the interner is unbounded
// and never evicts, so Misses == Entries). Like the rest of the
// Interner, it is not safe for concurrent use.
func (in *Interner) CacheStats() obs.CacheStats {
	n := int64(len(in.clauses))
	return obs.CacheStats{Hits: in.hits, Misses: n, Entries: n}
}

// mergeHash computes the hash and length the merge of a and b would
// have, without allocating it; ok = false on inconsistency.
func mergeHash(a, b Clause) (h uint64, n int, ok bool) {
	i, j := 0, 0
	var x uint64
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Var < b[j].Var:
			x ^= atomCode(a[i])
			i, n = i+1, n+1
		case a[i].Var > b[j].Var:
			x ^= atomCode(b[j])
			j, n = j+1, n+1
		default:
			if a[i].Val != b[j].Val {
				return 0, 0, false
			}
			x ^= atomCode(a[i])
			i, j, n = i+1, j+1, n+1
		}
	}
	for ; i < len(a); i++ {
		x ^= atomCode(a[i])
		n++
	}
	for ; j < len(b); j++ {
		x ^= atomCode(b[j])
		n++
	}
	h = (uint64(0x5bd1e995) + uint64(n)*0x100000001b3) ^ x // matches Clause.Hash
	return h, n, true
}

// mergeEqual reports whether cand equals the merge of consistent a and b,
// comparing atom by atom without materializing the merge.
func mergeEqual(cand, a, b Clause) bool {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		var next Atom
		switch {
		case a[i].Var < b[j].Var:
			next = a[i]
			i++
		case a[i].Var > b[j].Var:
			next = b[j]
			j++
		default:
			next = a[i]
			i++
			j++
		}
		if k >= len(cand) || cand[k] != next {
			return false
		}
		k++
	}
	for ; i < len(a); i, k = i+1, k+1 {
		if k >= len(cand) || cand[k] != a[i] {
			return false
		}
	}
	for ; j < len(b); j, k = j+1, k+1 {
		if k >= len(cand) || cand[k] != b[j] {
			return false
		}
	}
	return k == len(cand)
}
