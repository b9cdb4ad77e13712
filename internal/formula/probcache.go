package formula

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

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

// ProbCache is a concurrent, hash-consed memo table from subformulas to
// their exact probabilities. Identical lineage fragments recur across
// the answers of one query (shared base tuples) and across the Shannon
// branches of one compilation; sharing a cache across those evaluations
// computes each fragment once. Lookups verify candidates structurally,
// so hash collisions cost time, not correctness.
//
// Entries are never evicted; once MaxEntries is reached new fragments
// are computed but not stored, bounding memory while keeping every hit
// already earned. All methods are safe for concurrent use.
type ProbCache struct {
	mu      sync.RWMutex
	buckets map[uint64][]probEntry
	n       int
	max     int

	hits   atomic.Int64
	misses atomic.Int64
}

type probEntry struct {
	d DNF
	p float64
}

// DefaultProbCacheEntries bounds a cache built with NewProbCache(0).
const DefaultProbCacheEntries = 1 << 20

// NewProbCache returns an empty cache holding at most maxEntries
// subformulas (maxEntries <= 0 means DefaultProbCacheEntries).
func NewProbCache(maxEntries int) *ProbCache {
	if maxEntries <= 0 {
		maxEntries = DefaultProbCacheEntries
	}
	return &ProbCache{buckets: make(map[uint64][]probEntry), max: maxEntries}
}

// Lookup returns the memoized probability of d, if present.
func (c *ProbCache) Lookup(d DNF) (float64, bool) {
	h := d.Hash()
	c.mu.RLock()
	for _, e := range c.buckets[h] {
		if e.d.Equal(d) {
			c.mu.RUnlock()
			c.hits.Add(1)
			return e.p, true
		}
	}
	c.mu.RUnlock()
	c.misses.Add(1)
	return 0, false
}

// Store memoizes P(d) = p. Duplicate stores (two goroutines computing
// the same fragment concurrently) keep the first entry; the algorithm is
// deterministic, so both goroutines store the same value.
func (c *ProbCache) Store(d DNF, p float64) {
	h := d.Hash()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n >= c.max {
		return
	}
	for _, e := range c.buckets[h] {
		if e.d.Equal(d) {
			return
		}
	}
	c.buckets[h] = append(c.buckets[h], probEntry{d: d, p: p})
	c.n++
}

// Len returns the number of memoized subformulas.
func (c *ProbCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.n
}

// CacheStats returns the cumulative hit/miss traffic across all users
// of the cache plus its current entry count, in the engine-wide
// unified shape.
func (c *ProbCache) CacheStats() obs.CacheStats {
	return obs.CacheStats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Entries: int64(c.Len()),
	}
}
