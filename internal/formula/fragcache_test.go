package formula

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

func fragTestDNF(seed int) DNF {
	var d DNF
	for j := 0; j < 6; j++ {
		c := MustClause(
			Atom{Var: Var(seed + j), Val: True},
			Atom{Var: Var(seed + j + 3), Val: True},
		)
		d = append(d, c)
	}
	return d
}

func TestDNFHashEqual(t *testing.T) {
	s := NewSpace()
	x, y, z := s.AddBool(0.3), s.AddBool(0.5), s.AddBool(0.7)
	ds := []DNF{
		NewDNF(MustClause(Pos(x)), MustClause(Pos(y))),
		NewDNF(MustClause(Pos(x)), MustClause(Pos(z))),
		NewDNF(MustClause(Pos(y), Pos(z))),
		NewDNF(MustClause(Neg(x), Pos(y)), MustClause(Pos(z))),
	}
	for i, d := range ds {
		if !d.Equal(d.Clone()) {
			t.Fatalf("DNF %d not Equal to its clone", i)
		}
		if d.Hash() != d.Clone().Hash() {
			t.Fatalf("DNF %d clone hashes differently", i)
		}
		for j, e := range ds {
			if i != j && d.Equal(e) {
				t.Fatalf("distinct DNFs %d and %d compare Equal", i, j)
			}
		}
	}
}

func TestFragCacheRoundTrip(t *testing.T) {
	c := NewFragCache(0)
	d := fragTestDNF(0)
	if _, ok := c.Lookup(d, 0); ok {
		t.Fatal("lookup hit on empty cache")
	}
	f := &PreparedFrag{D: d, Lo: 0.2, Hi: 0.5, Work: 17}
	got := c.Store(d, 0, f)
	if got != f {
		t.Fatal("first store did not return the stored frag")
	}
	back, ok := c.Lookup(d, 0)
	if !ok || back != f {
		t.Fatalf("lookup after store: ok=%v frag=%p want %p", ok, back, f)
	}
	// An equal-but-distinct DNF value must hit the same entry.
	clone := d.Clone()
	back2, ok := c.Lookup(clone, 0)
	if !ok || back2 != f {
		t.Fatal("structural lookup by cloned key missed")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if st := c.CacheStats(); st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats hits=%d misses=%d, want 2/1", st.Hits, st.Misses)
	}
}

// Variants partition the key space: a fragment stored under one
// variant (prepared, exact) must be invisible to another.
func TestFragCacheVariants(t *testing.T) {
	c := NewFragCache(0)
	d := fragTestDNF(4)
	c.Store(d, 0, &PreparedFrag{D: d, Lo: 0.1, Hi: 0.1, Exact: true})
	if _, ok := c.Lookup(d, 1); ok {
		t.Fatal("variant 1 lookup hit a variant 0 entry")
	}
	f1 := &PreparedFrag{D: d, Lo: 0.1, Hi: 0.4}
	c.Store(d, 1, f1)
	if got, ok := c.Lookup(d, 1); !ok || got != f1 {
		t.Fatal("variant 1 entry not retrievable")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (one per variant)", c.Len())
	}
}

// Concurrent stores of the same fragment converge on one canonical
// entry; the loser's frag is discarded.
func TestFragCacheConcurrentStoreCanonical(t *testing.T) {
	c := NewFragCache(0)
	d := fragTestDNF(9)
	const goroutines = 8
	got := make([]*PreparedFrag, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = c.Store(d, 0, &PreparedFrag{D: d, Lo: 0.3, Hi: 0.6})
		}()
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if got[g] != got[0] {
			t.Fatalf("goroutine %d got a different canonical entry", g)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestFragCacheCapacity(t *testing.T) {
	c := NewFragCache(2)
	for i := 0; i < 5; i++ {
		d := fragTestDNF(10 * i)
		c.Store(d, 0, &PreparedFrag{D: d})
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want capped at 2", c.Len())
	}
	// Overflowed stores still return the caller's frag, usable uncached.
	d := fragTestDNF(1000)
	f := &PreparedFrag{D: d}
	if got := c.Store(d, 0, f); got != f {
		t.Fatal("overflow store did not hand the frag back")
	}
}

// A decision is recorded only over cache entries: a parent or a child a
// full cache handed back unstored would replay as a hit a Lookup could
// never produce.
func TestPreparedFragDecisionLazy(t *testing.T) {
	c := NewFragCache(3)
	parent := &PreparedFrag{D: fragTestDNF(2)}
	kids := []*PreparedFrag{{D: fragTestDNF(20)}, {D: fragTestDNF(30)}}
	dec := &Decision{Kind: 3, Children: kids, Weights: []float64{0.25, 0.75}}
	if parent.Decision() != nil {
		t.Fatal("decision reported before SetDecision")
	}
	parent.SetDecision(dec)
	if parent.Decision() != nil {
		t.Fatal("decision recorded on a frag no cache holds")
	}
	c.Store(parent.D, 0, parent)
	c.Store(kids[0].D, 0, kids[0])
	parent.SetDecision(dec)
	if parent.Decision() != nil {
		t.Fatal("decision recorded over a child no cache holds")
	}
	c.Store(kids[1].D, 0, kids[1])
	parent.SetDecision(dec)
	if got := parent.Decision(); got != dec {
		t.Fatalf("decision after every entry is stored: %+v", got)
	}
	// The cache is full now: a fourth frag comes back unstored.
	late := &PreparedFrag{D: fragTestDNF(40)}
	if c.Store(late.D, 0, late) != late || c.Len() != 3 {
		t.Fatal("overflow store did not hand the frag back")
	}
	parent.SetDecision(&Decision{Kind: 1, Children: []*PreparedFrag{late}, Weights: []float64{1}})
	if parent.Decision() != dec {
		t.Fatal("decision over an overflowed child replaced the recorded one")
	}
}

// Eight writers store overlapping key sets, each key under two variants
// and often through a clone, while the table doubles from 16 to 4096
// slots; readers look keys up and one goroutine saves throughout. Every
// (key, variant) ends with one canonical entry, the one every writer and
// a final Lookup see, and Len counts each once.
func TestFragCacheConcurrentWritersCanonical(t *testing.T) {
	const writers, span, stride, keys = 8, 200, 50, 7*50 + 200
	key := func(k int) DNF {
		return DNF{
			MustClause(Atom{Var: Var(k), Val: True}),
			MustClause(Atom{Var: Var(keys + k%13), Val: True}, Atom{Var: Var(2*keys + k%7), Val: True}),
		}
	}
	c := NewFragCache(0)
	got := make([][]*PreparedFrag, writers) // got[w][2*k+variant]
	var wg, bg sync.WaitGroup
	var done atomic.Bool // close is shadowed in this package's tests
	for r := 0; r < 2; r++ {
		bg.Add(1)
		go func() {
			defer bg.Done()
			for i := 0; ; i++ {
				if done.Load() {
					return
				}
				k := (i*31 + r*7) % keys
				if f, ok := c.Lookup(key(k), uint8(i%2)); ok && !f.D.Equal(key(k)) {
					t.Errorf("Lookup(key %d) returned the entry of %v", k, f.D)
					return
				}
			}
		}()
	}
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			if done.Load() {
				return
			}
			var buf bytes.Buffer
			if err := c.Save(&buf); err != nil {
				t.Errorf("Save: %v", err)
				return
			}
			if _, err := LoadFragCache(&buf, 0); err != nil {
				t.Errorf("LoadFragCache of a concurrent Save: %v", err)
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		got[w] = make([]*PreparedFrag, 2*keys)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := w * stride; k < w*stride+span; k++ {
				for v := 0; v < 2; v++ {
					d := key(k)
					if (k+w+v)%2 == 0 {
						d = d.Clone()
					}
					got[w][2*k+v] = c.Store(d, uint8(v), &PreparedFrag{D: d, Lo: float64(v), Hi: 1})
				}
			}
		}()
	}
	wg.Wait()
	done.Store(true)
	bg.Wait()
	for k := 0; k < keys; k++ {
		for v := 0; v < 2; v++ {
			want, ok := c.Lookup(key(k), uint8(v))
			if !ok || want.Lo != float64(v) {
				t.Fatalf("key %d variant %d: Lookup = %+v, %v after every writer stored it", k, v, want, ok)
			}
			for w := range got {
				if g := got[w][2*k+v]; g != nil && g != want {
					t.Fatalf("key %d variant %d: writer %d holds %p, canonical entry %p", k, v, w, g, want)
				}
			}
		}
	}
	if n := c.Len(); n != 2*keys {
		t.Fatalf("Len = %d, want %d (one entry per key and variant)", n, 2*keys)
	}
}

// TestFragCacheStoreAllocationsAmortized pins the arena: filling a
// fresh cache with 4 096 distinct fragments allocates only the cache,
// the slot-array doublings and the arena's growth — no per-entry node
// or bucket.
func TestFragCacheStoreAllocationsAmortized(t *testing.T) {
	const n = 4096
	keys := make([]DNF, n)
	frags := make([]*PreparedFrag, n)
	for i := range keys {
		keys[i] = fragTestDNF(7 * i)
		frags[i] = &PreparedFrag{D: keys[i]}
	}
	a := testing.AllocsPerRun(5, func() {
		c := NewFragCache(0)
		for i, d := range keys {
			c.Store(d, 0, frags[i])
		}
		if c.Len() != n {
			t.Fatalf("Len = %d, want %d", c.Len(), n)
		}
	})
	if per := a / n; per > 0.01 {
		t.Fatalf("%v allocations over %d distinct stores (%.4f each), want at most 0.01 each", a, n, per)
	}
}

// TestFragCacheStoreBytesNeverCopyArena pins the segmented arena in
// bytes: filling a fresh cache with 4 096 distinct fragments allocates
// each segment once and the slot arrays of every doubling (under twice
// the final one), plus the cache itself. The constant covers rounding
// to the allocator's size classes, which only the small segments and
// the cache pay (about 5 KiB on amd64). An arena that copied itself at
// each doubling would allocate about twice the segments' total, 192 KiB
// more.
func TestFragCacheStoreBytesNeverCopyArena(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations inflate TotalAlloc")
	}
	const n = 4096
	keys := make([]DNF, n)
	frags := make([]*PreparedFrag, n)
	for i := range keys {
		keys[i] = fragTestDNF(7 * i)
		frags[i] = &PreparedFrag{D: keys[i]}
	}
	var c *FragCache
	var before, after runtime.MemStats
	alloc := ^uint64(0)
	for range 3 { // the least of three: nothing else in the process adds to it
		runtime.ReadMemStats(&before)
		c = NewFragCache(0)
		for i, d := range keys {
			c.Store(d, 0, frags[i])
		}
		runtime.ReadMemStats(&after)
		alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
	}
	arena := 0
	for _, seg := range c.segs {
		arena += cap(seg)
	}
	if arena != n {
		t.Fatalf("segments hold %d entries, want %d", arena, n)
	}
	bound := uint64(arena)*uint64(unsafe.Sizeof(fragCacheEntry{})) +
		2*uint64(len(c.slots))*uint64(unsafe.Sizeof(c.slots[0])) +
		uint64(unsafe.Sizeof(*c)) + 8<<10
	if alloc > bound {
		t.Fatalf("%d distinct stores allocated %d bytes, want at most %d (segments, slot arrays and the cache)", n, alloc, bound)
	}
}

// TestFragCacheEmptyIsSmall pins the arena's lazy first block: an empty
// cache — the fresh per-query cache of the safe and IQ routes, which
// never store — is one allocation of at most 128 bytes, and a cache's
// first Store makes exactly two: the slot array and one arena block
// (segment 0 with the segment headers).
func TestFragCacheEmptyIsSmall(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations inflate TotalAlloc")
	}
	const n = 64
	keep := make([]*FragCache, n)
	per := ^uint64(0)
	var before, after runtime.MemStats
	for range 3 { // the least of three: nothing else in the process adds to it
		runtime.ReadMemStats(&before)
		for i := range keep {
			keep[i] = NewFragCache(0)
		}
		runtime.ReadMemStats(&after)
		per = min(per, (after.TotalAlloc-before.TotalAlloc)/n)
	}
	if per > 128 {
		t.Fatalf("an empty NewFragCache(0) allocates %d bytes, want at most 128", per)
	}

	d := fragTestDNF(1)
	f := &PreparedFrag{D: d}
	empty := testing.AllocsPerRun(10, func() { keep[0] = NewFragCache(0) })
	first := testing.AllocsPerRun(10, func() {
		c := NewFragCache(0)
		c.Store(d, 0, f)
		keep[0] = c
	})
	if empty != 1 || first-empty != 2 {
		t.Fatalf("NewFragCache makes %v allocations and its first Store %v, want 1 and 2 (slot array, arena block)", empty, first-empty)
	}
}
