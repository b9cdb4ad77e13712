package formula

import "sync"

// Order-independent 64-bit hashing of clauses, and the one hash table
// built on it. Each atom gets a strong 64-bit code (splitmix64 of its
// packed representation); a clause's hash is the XOR of its atoms'
// codes, so the hash of a subset (RemoveSubsumed) or of a merge
// (Interner) is computed without materializing the clause. clauseTable
// is the open-addressing index every user probes — Normalize and Dedup,
// RemoveSubsumed, the Interner. Candidates are verified structurally,
// so hash collisions cost time, not correctness.

// AtomHash returns a well-mixed 64-bit code for an atom; exported for
// hash-based clause-projection counting in the d-tree factorizer.
func AtomHash(a Atom) uint64 { return atomCode(a) }

// atomCode returns a well-mixed 64-bit code for an atom.
func atomCode(a Atom) uint64 {
	x := uint64(uint32(a.Var))<<32 | uint64(uint32(a.Val))
	// splitmix64 finalizer.
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash returns an order-independent hash of the clause. Equal clauses
// hash equally; the empty clause hashes to a fixed constant mixed with
// the length so that {} and unlucky XOR-cancellations stay apart from
// typical clauses.
func (c Clause) Hash() uint64 {
	h := uint64(0x5bd1e995) + uint64(len(c))*0x100000001b3
	for _, a := range c {
		h ^= atomCode(a)
	}
	return h
}

// clauseTable is an open-addressing (linear probing, load ≤ ½) index
// from clause hashes to positions in a clause slice its user owns. A
// slot packs the hash's upper half with the position, so a probe
// rejects nearly every other clause without touching it; the user
// verifies the candidates that remain, against a clause, a subset or a
// merge it never builds. Entries are not removed.
type clauseTable struct {
	slots []uint64 // hash>>32<<32 | position+1; 0 = empty; len is a power of two
	keep  []bool   // RemoveSubsumed's per-clause survivor flags
}

// minTableSlots is a clauseTable's least slot count.
const minTableSlots = 16

// reset empties the table and sizes it for n clauses, reusing its
// memory: what a call pays is proportional to n, not to the largest
// table the (pooled) value has ever been.
func (t *clauseTable) reset(n int) {
	size := minTableSlots
	for size < 2*n {
		size <<= 1
	}
	if cap(t.slots) < size {
		t.slots = make([]uint64, size)
		return
	}
	t.slots = t.slots[:size]
	clear(t.slots)
}

// keepFlags returns a length-n flag buffer (contents undefined).
func (t *clauseTable) keepFlags(n int) []bool {
	if cap(t.keep) < n {
		t.keep = make([]bool, n)
	}
	return t.keep[:n]
}

// next walks the probe sequence of hash h. Called with i = h, and then
// with the at it last returned, it yields the positions put under h
// (and, rarely, under a hash that shares h's upper half), oldest first,
// and -1 once the sequence is exhausted — at is then the empty slot
// where put seats a new entry for h.
func (t *clauseTable) next(h, i uint64) (pos int, at uint64) {
	mask := uint64(len(t.slots) - 1)
	for i &= mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return -1, i
		}
		if s>>32 == h>>32 {
			return int(uint32(s)) - 1, i + 1
		}
	}
}

// put seats position pos under hash h in the empty slot at.
func (t *clauseTable) put(h, at uint64, pos int) {
	t.slots[at] = h>>32<<32 | uint64(pos+1)
}

// add seats position pos under hash h behind every entry already in
// h's probe sequence.
func (t *clauseTable) add(h uint64, pos int) {
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.put(h, i, pos)
}

// tablePool holds the tables of Normalize, Dedup and RemoveSubsumed
// (with the latter's flags), which live for one call.
var tablePool = sync.Pool{New: func() any { return new(clauseTable) }}
