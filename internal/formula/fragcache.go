package formula

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// PreparedFrag is the result of d-tree leaf preparation for one lineage
// fragment: the normalized, subsumption-reduced DNF together with its
// heuristic probability bounds (core.LeafBounds: Figure 3's
// independent partition, with a star-cover upper bound at positive leaves)
// and the work the preparation cost. It is the prepared-
// statement analogue for fragments: the d-tree compiler prepares every
// leaf it constructs, join lineage repeats identical subformulas across
// answers and across Shannon siblings, and a FragCache lets each
// distinct fragment be prepared once. Exact evaluation stores its
// results in the same shape: D the fragment, Lo == Hi its probability,
// Exact set, Work 0.
//
// The decomposition step the compiler applies when the leaf is later
// refined is memoized on the entry the first time it runs, as a
// Decision (SetDecision).
//
// PreparedFrag values are shared between goroutines once published by a
// FragCache; all fields are read-only after Store, and the lazy
// decision is accessed through an atomic pointer. Callers must treat D
// and the decision as immutable.
type PreparedFrag struct {
	// D is the prepared form: normalized (duplicate clauses removed)
	// and, unless the preparing evaluation disabled it, subsumption-
	// reduced.
	D DNF
	// Lo and Hi bound P(D): Lo ≤ P(D) ≤ Hi, with Lo == Hi when the
	// preparation obtained the exact probability (single clause, the
	// inclusion-exclusion shortcut, or a single independent bucket).
	Lo, Hi float64
	// Exact reports Lo == Hi.
	Exact bool
	// cached is set by the Store that made this frag a cache entry.
	cached bool
	// Work is the number of clause-processing operations preparation
	// charged against the evaluation's work budget. Cache hits charge
	// the same amount, so budget traces are identical whether a
	// fragment is prepared or replayed.
	Work int64

	dec atomic.Pointer[Decision]
}

// Decision is the outcome of one d-tree decomposition step on a
// prepared fragment: the node kind (as the compiler's own enum value)
// and the children as their canonical cache entries with their branch
// weights (P(x = a) under Shannon expansion, 1 otherwise). The step is
// a pure function of D, so replaying a Decision is indistinguishable
// from re-running the step and looking every child up.
type Decision struct {
	Kind     uint8
	Children []*PreparedFrag
	// Weights are shared and read-only: every replay hands out this
	// slice, and the weights of an independent-or or independent-and
	// step are one slice of ones shared by all of them.
	Weights []float64
}

// Decision returns the decomposition recorded on f, or nil.
func (f *PreparedFrag) Decision() *Decision { return f.dec.Load() }

// SetDecision records dec on f, provided f and every child are cache
// entries: a replayed child must be exactly what a Lookup of its key
// would return, so a decision over a frag a full cache handed back
// unstored is dropped. Concurrent setters race benignly: every caller
// stores an equal value (children are canonical entries).
func (f *PreparedFrag) SetDecision(dec *Decision) {
	if !f.cached {
		return
	}
	for _, c := range dec.Children {
		if !c.cached {
			return
		}
	}
	f.dec.Store(dec)
}

// FragCache is the engine's one concurrent memo table. Evaluation at
// ε > 0 maps raw lineage fragments to their prepared forms —
// normalization, subsumption removal and heuristic [lo, hi] bounds, the
// whole per-leaf preparation pipeline of the d-tree compiler — keyed by
// the fragment as the compiler encounters it (pre-preparation); each
// entry later memoizes its decomposition step as well (Decision), so a
// warm refinement neither re-runs the step nor looks its children up.
// Exact evaluation maps already-prepared fragments to their exact
// probabilities, stored as point entries (Lo == Hi, Exact). Either way
// identical subformulas reached across the answers of a query or across
// Shannon siblings of one compilation are computed once. A cache is
// shared by handing it to every evaluation over the same Space and must
// not be reused with a different Space (entries embed that space's
// probabilities).
//
// Lookups carry a variant byte that partitions the key space: the
// evaluator chooses it (internal/core keeps prepared fragments under
// one variant and exact entries under another), and entries stored
// under one variant are invisible to another, which keeps a shared
// cache correct when different evaluations share it.
//
// Entries are never evicted; once MaxEntries is reached new fragments
// are prepared but not stored, bounding memory while keeping every hit
// already earned. (Decisions point at their children's entries, so an
// evicting table would keep an evicted child reachable through its
// parent's decision — safe, but no longer what a Lookup returns.) All
// methods are safe for concurrent use.
//
// Layout: the entries live in an arena in insertion order, each
// keeping its key's hash. The arena is a run of segments that double in
// size: segment 0 holds positions 0–7 and segment k ≥ 1 holds
// [8·2^(k−1), 8·2^k). A segment's array is allocated once, at its full
// length, and never moves; its header is written once, by the grow that
// opens it. The headers are allocated with segment 0, in the first
// grow, so a cache that never stores holds none. An open-addressing
// table (linear probing, load ≤ ½) indexes the arena: a uint32 slot
// holds an arena position plus one. A probe compares stored hashes
// first and verifies the few candidates that remain structurally.
// Growth doubles the slot array, re-seats every position from the
// stored hashes (never rehashing a key) and allocates the next segment,
// which holds exactly as many entries as the arena before it, so the
// arena fills the new table's capacity. A Store therefore allocates
// only when it doubles the table, and never copies an entry.
//
// Locking: one RWMutex guards the slots, the segment headers and the
// count. Lookup probes under the read lock and Store under the write
// lock. Save snapshots the count and the segment headers under the read
// lock and reads the entries after releasing it: a segment and its
// header never change once made, and an entry never changes once
// counted. It writes the entries in insertion order.
type FragCache struct {
	mu    sync.RWMutex
	slots []uint32                         // arena position+1; 0 = empty; len is a power of two
	segs  *[fragCacheSegs][]fragCacheEntry // the arena, insertion order; see segment
	n     int                              // entries stored
	max   int

	hits   atomic.Int64
	misses atomic.Int64
}

type fragCacheEntry struct {
	hash    uint64 // fragKeyHash(key, variant)
	key     DNF    // the fragment as presented for preparation
	frag    *PreparedFrag
	variant uint8
}

// DefaultFragCacheEntries bounds a cache built with NewFragCache(0).
const DefaultFragCacheEntries = 1 << 19

// maxFragCacheEntries caps MaxEntries within what a uint32 slot
// addresses, on every platform's int.
const maxFragCacheEntries = 1<<31 - 1

// minFragCacheSlots is the slot count of a cache's first table, and
// half of it the size of the arena's first segment.
const minFragCacheSlots = 16

// fragCacheSegs is the number of arena segments: with the first holding
// 8 entries and each later one as many as all before it, 29 cover
// maxFragCacheEntries.
const fragCacheSegs = 29

// fragCacheArena is the arena's first block: the segment headers and
// segment 0, one allocation made by a cache's first Store.
type fragCacheArena struct {
	segs  [fragCacheSegs][]fragCacheEntry
	first [minFragCacheSlots / 2]fragCacheEntry
}

// segment returns the arena segment of position p and p's offset in it.
func segment(p int) (k, off int) {
	k = bits.Len(uint(p) / (minFragCacheSlots / 2))
	if k == 0 {
		return 0, p
	}
	return k, p - minFragCacheSlots/2<<(k-1)
}

// entry returns the entry at arena position p. The caller holds c.mu:
// a Store may be writing p's segment header.
func (c *FragCache) entry(p int) *fragCacheEntry {
	k, off := segment(p)
	return &c.segs[k][off]
}

// NewFragCache returns an empty cache holding at most maxEntries
// prepared fragments (maxEntries <= 0 means DefaultFragCacheEntries).
func NewFragCache(maxEntries int) *FragCache {
	if maxEntries <= 0 {
		maxEntries = DefaultFragCacheEntries
	}
	return &FragCache{max: min(maxEntries, maxFragCacheEntries)}
}

// Hash returns a 64-bit hash of the DNF, sensitive to clause order. The
// evaluation paths that use it hash DNFs in the canonical form produced
// by Normalize/RemoveSubsumed (deterministic clause order), so equal
// subformulas reached along different d-tree branches hash equally.
func (d DNF) Hash() uint64 {
	h := uint64(0xcbf29ce484222325) // FNV-1a offset basis
	for _, c := range d {
		h ^= c.Hash()
		h *= 0x100000001b3
	}
	// Final avalanche so short DNFs spread over the full range.
	h ^= uint64(len(d))
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	return h ^ (h >> 31)
}

// Equal reports whether d and e are identical clause sequences.
func (d DNF) Equal(e DNF) bool {
	if len(d) != len(e) {
		return false
	}
	for i := range d {
		if !d[i].Equal(e[i]) {
			return false
		}
	}
	return true
}

func fragKeyHash(d DNF, variant uint8) uint64 {
	// Mix the variant into the hash so the variants of the same
	// fragment never collide structurally.
	return d.Hash() ^ (uint64(variant) * 0x9e3779b97f4a7c15)
}

// find probes for d under variant, whose fragKeyHash is h. It returns
// the entry's arena position, or -1 and the empty slot that ends the
// probe sequence (meaningless when the table has no slots yet). The
// caller holds c.mu.
func (c *FragCache) find(d DNF, variant uint8, h uint64) (pos int, at uint64) {
	if len(c.slots) == 0 {
		return -1, 0
	}
	mask := uint64(len(c.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := c.slots[i]
		if s == 0 {
			return -1, i
		}
		e := c.entry(int(s - 1))
		if e.hash == h && e.variant == variant && e.key.Equal(d) {
			return int(s - 1), i
		}
	}
}

// Lookup returns the prepared form of d under the given variant, if
// present. The returned PreparedFrag is shared and must be treated as
// immutable (SetDecision excepted).
func (c *FragCache) Lookup(d DNF, variant uint8) (*PreparedFrag, bool) {
	h := fragKeyHash(d, variant)
	c.mu.RLock()
	if pos, _ := c.find(d, variant, h); pos >= 0 {
		f := c.entry(pos).frag
		c.mu.RUnlock()
		c.hits.Add(1)
		return f, true
	}
	c.mu.RUnlock()
	c.misses.Add(1)
	return nil, false
}

// Store memoizes the prepared form of d under the given variant and
// returns the canonical entry: the stored frag, or the pre-existing one
// when another goroutine prepared the same fragment concurrently
// (preparation is deterministic, so both prepared equal values).
// When the cache is full the frag is returned unstored.
func (c *FragCache) Store(d DNF, variant uint8, f *PreparedFrag) *PreparedFrag {
	h := fragKeyHash(d, variant)
	c.mu.Lock()
	defer c.mu.Unlock()
	pos, at := c.find(d, variant, h)
	if pos >= 0 {
		return c.entry(pos).frag
	}
	if c.n >= c.max {
		return f
	}
	if 2*(c.n+1) > len(c.slots) {
		c.grow()
		_, at = c.find(d, variant, h)
	}
	f.cached = true
	*c.entry(c.n) = fragCacheEntry{hash: h, key: d, frag: f, variant: variant}
	c.n++
	c.slots[at] = uint32(c.n)
	return f
}

// grow doubles the slot array (or makes the first one) and re-seats
// every arena position from its stored hash, in insertion order. The
// table grows when the arena is full, at half the old slots, so the
// next position opens a segment: grow allocates it at the length that
// fills half the new slots — the first grow allocates segment 0 with
// the headers.
func (c *FragCache) grow() {
	size := max(2*len(c.slots), minFragCacheSlots)
	c.slots = make([]uint32, size)
	mask := uint64(size - 1)
	for p := range c.n {
		i := c.entry(p).hash & mask
		for c.slots[i] != 0 {
			i = (i + 1) & mask
		}
		c.slots[i] = uint32(p + 1)
	}
	if c.segs == nil {
		a := new(fragCacheArena)
		a.segs[0] = a.first[:]
		c.segs = &a.segs
		return
	}
	k, _ := segment(c.n)
	c.segs[k] = make([]fragCacheEntry, size/2-c.n)
}

// CountHit records a hit served without a Lookup — a child of a
// replayed Decision — so CacheStats reads exactly as if it had been
// looked up.
func (c *FragCache) CountHit() { c.hits.Add(1) }

// Len returns the number of memoized fragments.
func (c *FragCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.n
}

// CacheStats returns the cumulative hit/miss traffic across all users
// of the cache plus its current entry count, in the engine-wide
// unified shape.
func (c *FragCache) CacheStats() obs.CacheStats {
	return obs.CacheStats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Entries: int64(c.Len()),
	}
}

// ProbCache is the former name of the exact-probability memo, now a
// variant of FragCache.
//
// Deprecated: named only by bench/; use FragCache.
type ProbCache = FragCache

// NewProbCache returns NewFragCache(maxEntries).
//
// Deprecated: named only by bench/; use NewFragCache.
func NewProbCache(maxEntries int) *FragCache { return NewFragCache(maxEntries) }
