package formula

import (
	"bytes"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// The oracle: the four hand-rolled hash multimaps exactly as they ran
// before clauseTable replaced them — Normalize's map[uint64][]int, the
// clauseIndex behind RemoveSubsumed, and the Interner's
// map[uint64][]Clause (core.dedupTable had Normalize's semantics over
// its own open-addressing table) — moved here verbatim, identifiers
// prefixed with ref. The table must yield the same clauses in the same
// order, and the same canonical instances.

func refNormalize(d DNF) DNF {
	seen := make(map[uint64][]int, len(d))
	out := make(DNF, 0, len(d))
	for _, c := range d {
		h := c.Hash()
		dup := false
		for _, i := range seen[h] {
			if out[i].Equal(c) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		seen[h] = append(seen[h], len(out))
		out = append(out, c)
	}
	return out
}

// refClauseIndex is a hash multimap from clause hash to clause indices,
// with structural verification on lookup.
type refClauseIndex struct {
	d DNF
	m map[uint64][]int
}

func newRefClauseIndex(d DNF) *refClauseIndex {
	ci := &refClauseIndex{d: d, m: make(map[uint64][]int, len(d))}
	for i, c := range d {
		h := c.Hash()
		ci.m[h] = append(ci.m[h], i)
	}
	return ci
}

// lookup returns the first index of a clause equal to c, or -1.
func (ci *refClauseIndex) lookup(c Clause) int {
	for _, i := range ci.m[c.Hash()] {
		if ci.d[i].Equal(c) {
			return i
		}
	}
	return -1
}

// lookupSubsetHash returns the first index whose clause equals the given
// subset of base (described by mask over base's atoms), or -1.
func (ci *refClauseIndex) lookupSubsetHash(h uint64, base Clause, mask int) int {
candidates:
	for _, i := range ci.m[h] {
		cand := ci.d[i]
		j := 0
		for b := 0; b < len(base); b++ {
			if mask&(1<<b) == 0 {
				continue
			}
			if j >= len(cand) || cand[j] != base[b] {
				continue candidates
			}
			j++
		}
		if j == len(cand) {
			return i
		}
	}
	return -1
}

func refSubsetPresent(c Clause, index *refClauseIndex, self int, widths uint16) bool {
	n := len(c)
	if n == 0 {
		return false
	}
	var codes [maxEnumWidthAtoms]uint64
	for b := 0; b < n; b++ {
		codes[b] = atomCode(c[b])
	}
	for r := 1; r < n; r++ {
		if widths&(1<<r) == 0 {
			continue
		}
		base := uint64(0x5bd1e995) + uint64(r)*0x100000001b3
		for mask := (1 << r) - 1; mask < 1<<n; {
			h := base
			for m := mask; m != 0; m &= m - 1 {
				h ^= codes[bits.TrailingZeros32(uint32(m))]
			}
			if index.lookupSubsetHash(h, c, mask) >= 0 {
				return true
			}
			lo := mask & -mask
			up := mask + lo
			mask = (((up ^ mask) >> 2) / lo) | up
		}
	}
	if i := index.lookup(c); i >= 0 && i != self {
		return i < self // duplicate: keep only the first occurrence
	}
	return false
}

// refRemoveSubsumed is RemoveSubsumed's subset-enumeration branch (every
// clause at most maxEnumWidthAtoms wide) over the map index.
func refRemoveSubsumed(d DNF) DNF {
	if len(d) <= 1 {
		return d
	}
	var widths uint16
	for _, c := range d {
		widths |= 1 << len(c)
	}
	index := newRefClauseIndex(d)
	out := make(DNF, 0, len(d))
	for i, c := range d {
		if !refSubsetPresent(c, index, i, widths) {
			out = append(out, c)
		}
	}
	return out
}

type refInterner struct {
	m       map[uint64][]Clause
	hits    int64
	inserts int64
}

func (in *refInterner) MergeInterned(a, b Clause) (Clause, bool) {
	h, n, ok := mergeHash(a, b)
	if !ok {
		return nil, false
	}
	for _, cand := range in.m[h] {
		if len(cand) == n && mergeEqual(cand, a, b) {
			in.hits++
			return cand, true
		}
	}
	merged, ok := a.Merge(b)
	if !ok {
		return nil, false
	}
	in.m[h] = append(in.m[h], merged)
	in.inserts++
	return merged, true
}

// instancePairs checks that two interners hand out canonical instances
// in step: whenever one returns a backing array it has returned before,
// so does the other, and the same one as then.
type instancePairs struct{ fwd, rev map[*Atom]*Atom }

func newInstancePairs() instancePairs {
	return instancePairs{fwd: make(map[*Atom]*Atom), rev: make(map[*Atom]*Atom)}
}

func (p instancePairs) same(got, ref Clause) bool {
	if len(got) == 0 {
		return true // the empty clause has no array to share
	}
	g, r := &got[0], &ref[0]
	if seen, ok := p.fwd[r]; ok {
		return seen == g
	}
	if _, ok := p.rev[g]; ok {
		return false
	}
	p.fwd[r], p.rev[g] = g, r
	return true
}

// clausesFrom decodes a byte string into clauses over 8 three-valued
// variables, so that duplicates, subsets and inconsistent pairs are all
// common: the low three bits of a byte name a variable and the next two
// a value, unless bit 6 says the byte carries no atom; a set top bit
// ends the clause (0xc0 alone is the empty clause). An inconsistent
// clause is dropped.
func clausesFrom(data []byte) DNF {
	var d DNF
	var atoms []Atom
	for _, b := range data {
		if b&0x40 == 0 {
			atoms = append(atoms, Atom{Var: Var(b & 7), Val: Val((b >> 3 & 3) % 3)})
		}
		if b&0x80 != 0 {
			if c, ok := NewClause(atoms...); ok {
				d = append(d, c)
			}
			atoms = atoms[:0]
		}
	}
	return d
}

func dnfIdentical(a, b DNF) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// checkTableAgainstOracle runs every clauseTable user and its map
// oracle over d.
func checkTableAgainstOracle(t *testing.T, d DNF) {
	t.Helper()
	want := refNormalize(d)
	if got := d.Normalize(); !dnfIdentical(got, want) {
		t.Fatalf("Normalize(%v) = %v, map oracle %v", d, got, want)
	}
	if got := d.Clone().Dedup(); !dnfIdentical(got, want) {
		t.Fatalf("Dedup(%v) = %v, map oracle %v", d, got, want)
	}
	// RemoveSubsumed takes any DNF, duplicates included.
	for _, in := range []DNF{d, want} {
		if got, ref := in.RemoveSubsumed(), refRemoveSubsumed(in); !sameWidth(in) && !dnfIdentical(got, ref) {
			t.Fatalf("RemoveSubsumed(%v) = %v, map oracle %v", in, got, ref)
		}
	}
	// Merge every pair, twice over (the second round only hits): equal
	// merges share an instance exactly where the oracle's do.
	in, ref := NewInterner(), &refInterner{m: make(map[uint64][]Clause)}
	pairs := newInstancePairs()
	for round := 0; round < 2; round++ {
		for i := range d {
			for j := i; j < len(d); j++ {
				g, gok := in.MergeInterned(d[i], d[j])
				r, rok := ref.MergeInterned(d[i], d[j])
				if gok != rok || !g.Equal(r) {
					t.Fatalf("MergeInterned(%v, %v) = %v, %v; map oracle %v, %v", d[i], d[j], g, gok, r, rok)
				}
				if m, ok := d[i].Merge(d[j]); ok != gok {
					t.Fatalf("MergeInterned(%v, %v) ok = %v, Merge = %v, %v", d[i], d[j], gok, m, ok)
				}
				if gok && !pairs.same(g, r) {
					t.Fatalf("MergeInterned(%v, %v) = %v is not the instance returned where the map oracle returned this one", d[i], d[j], g)
				}
			}
		}
	}
	if st := in.CacheStats(); st.Hits != ref.hits || st.Entries != ref.inserts || st.Misses != ref.inserts {
		t.Fatalf("interner stats %+v, map oracle hits %d inserts %d", st, ref.hits, ref.inserts)
	}
}

// sameWidth is RemoveSubsumed's shortcut condition: clauses of one
// width are returned untouched, duplicates and all.
func sameWidth(d DNF) bool {
	for _, c := range d {
		if len(c) != len(d[0]) {
			return false
		}
	}
	return true
}

// FuzzClauseTableMatchesMapOracle: Normalize's first-occurrence order,
// RemoveSubsumed's output and the Interner's canonical instances are
// those of the map-based code the table replaced — across slot
// collisions in the smallest (16-slot) table and, on the longer inputs,
// several doublings of the Interner's.
func FuzzClauseTableMatchesMapOracle(f *testing.F) {
	f.Add([]byte{}) // the rest of the seed corpus is in testdata/fuzz
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			return // the pairwise merges are quadratic
		}
		checkTableAgainstOracle(t, clausesFrom(data))
	})
}

// TestClauseTableMatchesMapOracleSeeded is the same check on inputs the
// byte decoder does not reach: thousands of clauses over hundreds of
// variables, where the per-call tables run to 2¹³ slots and the
// Interner doubles nine times.
func TestClauseTableMatchesMapOracleSeeded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{7, 8, 9, 300, 3000} {
		d := make(DNF, 0, n)
		for len(d) < n {
			if len(d) > 0 && rng.Intn(4) == 0 {
				d = append(d, d[rng.Intn(len(d))]) // a duplicate
				continue
			}
			atoms := make([]Atom, 1+rng.Intn(4))
			for i := range atoms {
				atoms[i] = Atom{Var: Var(rng.Intn(n/2 + 2)), Val: Val(rng.Intn(2))}
			}
			if c, ok := NewClause(atoms...); ok {
				d = append(d, c)
			}
		}
		want := refNormalize(d)
		if got := d.Normalize(); !dnfIdentical(got, want) {
			t.Fatalf("n=%d: Normalize diverges from the map oracle", n)
		}
		if got := d.Clone().Dedup(); !dnfIdentical(got, want) {
			t.Fatalf("n=%d: Dedup diverges from the map oracle", n)
		}
		if got, ref := d.RemoveSubsumed(), refRemoveSubsumed(d); !dnfIdentical(got, ref) {
			t.Fatalf("n=%d: RemoveSubsumed keeps %d clauses, map oracle %d", n, len(got), len(ref))
		}
		in, ref := NewInterner(), &refInterner{m: make(map[uint64][]Clause)}
		pairs := newInstancePairs()
		for i := 0; i < 4*n; i++ {
			a, b := d[rng.Intn(len(d))], d[rng.Intn(len(d))]
			g, gok := in.MergeInterned(a, b)
			r, rok := ref.MergeInterned(a, b)
			if gok != rok || !g.Equal(r) {
				t.Fatalf("n=%d: MergeInterned(%v, %v) = %v, %v; map oracle %v, %v", n, a, b, g, gok, r, rok)
			}
			if gok && !pairs.same(g, r) {
				t.Fatalf("n=%d: MergeInterned(%v, %v) = %v is not the instance returned where the map oracle returned this one", n, a, b, g)
			}
		}
		if st := in.CacheStats(); st.Hits != ref.hits || st.Entries != ref.inserts {
			t.Fatalf("n=%d: interner stats %+v, map oracle hits %d inserts %d", n, st, ref.hits, ref.inserts)
		}
	}
}

// TestNormalizeAllocatesOnlyItsResult pins the table's pooling and the
// no-copy path: no map, no per-clause slice, and a duplicate-free DNF
// comes back as itself, with no allocation at all.
func TestNormalizeAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	const n = 10_000
	d := make(DNF, n)
	for i := range d {
		d[i] = Clause{{Var: Var(i), Val: True}, {Var: Var(n + i%97), Val: True}}
	}
	d.Normalize() // size the pooled table
	if a := testing.AllocsPerRun(10, func() {
		if got := d.Normalize(); len(got) != n || &got[0] != &d[0] {
			t.Fatalf("%d clauses, want d itself (%d)", len(got), n)
		}
	}); a != 0 {
		t.Fatalf("Normalize of a duplicate-free %d-clause DNF: %v allocations, want 0", n, a)
	}
}

// TestRemoveSubsumedNothingSubsumedAllocatesNothing pins the no-copy
// path of RemoveSubsumed on mixed clause widths, where the subset
// enumeration runs: with nothing subsumed, d comes back as itself and
// the survivor flags come from the pooled table.
func TestRemoveSubsumedNothingSubsumedAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	const n = 1000
	d := make(DNF, n)
	for i := range d {
		c := Clause{{Var: Var(i), Val: True}, {Var: Var(n + i%31), Val: True}}
		if i%2 == 1 {
			c = append(c, Atom{Var: Var(2*n + i%7), Val: False})
		}
		d[i] = c
	}
	d.RemoveSubsumed() // size the pooled table
	if a := testing.AllocsPerRun(10, func() {
		if got := d.RemoveSubsumed(); len(got) != n || &got[0] != &d[0] {
			t.Fatalf("%d clauses, want d itself (%d)", len(got), n)
		}
	}); a != 0 {
		t.Fatalf("RemoveSubsumed with nothing subsumed: %v allocations, want 0", a)
	}
}

// TestNormalizeCopiesFromFirstDuplicate checks the copy that starts at
// the first duplicate against the always-copy oracle, wherever that
// duplicate falls, and that neither Normalize nor a copy's Dedup
// writes into d.
func TestNormalizeCopiesFromFirstDuplicate(t *testing.T) {
	c := make([]Clause, 5)
	for i := range c {
		c[i] = Clause{{Var: Var(i), Val: True}, {Var: Var(10 + i%2), Val: True}}
	}
	for _, tc := range []struct {
		name string
		d    DNF
	}{
		{"none", DNF{c[0], c[1], c[2]}},
		{"first", DNF{c[0], c[0], c[1], c[2]}},
		{"middle", DNF{c[0], c[1], c[2], c[1], c[3]}},
		{"last", DNF{c[0], c[1], c[2], c[3], c[0]}},
		{"every clause, adjacent", DNF{c[0], c[0], c[1], c[1], c[2], c[2]}},
		{"every clause, repeated", DNF{c[0], c[1], c[2], c[0], c[1], c[2], c[2]}},
	} {
		before := tc.d.Clone()
		want := refNormalize(tc.d)
		got := tc.d.Normalize()
		if !dnfIdentical(got, want) {
			t.Errorf("%s: Normalize = %v, oracle %v", tc.name, got, want)
		}
		aliased, wantAliased := &got[0] == &tc.d[0], len(want) == len(tc.d)
		if aliased != wantAliased {
			t.Errorf("%s: result aliases d: %v, want %v", tc.name, aliased, wantAliased)
		}
		if !dnfIdentical(tc.d, before) {
			t.Errorf("%s: Normalize changed d to %v", tc.name, tc.d)
		}
		if got := tc.d.Clone().Dedup(); !dnfIdentical(got, want) {
			t.Errorf("%s: Dedup = %v, oracle %v", tc.name, got, want)
		}
	}
}

// refFragCache is the FragCache table before the open-addressing arena:
// a map from key hash to a bucket of entry pointers behind one RWMutex,
// moved here verbatim, identifiers prefixed with ref. The arena table
// must return the same canonical entry on every Store and Lookup, count
// the same hits and misses, and stop storing at the same entry.
type refFragCache struct {
	mu      sync.RWMutex
	buckets map[uint64][]*refFragCacheEntry
	n       int
	max     int

	hits   atomic.Int64
	misses atomic.Int64
}

type refFragCacheEntry struct {
	key     DNF // the fragment as presented for preparation
	variant uint8
	frag    *PreparedFrag
}

func newRefFragCache(maxEntries int) *refFragCache {
	if maxEntries <= 0 {
		maxEntries = DefaultFragCacheEntries
	}
	return &refFragCache{buckets: make(map[uint64][]*refFragCacheEntry), max: maxEntries}
}

func (c *refFragCache) Lookup(d DNF, variant uint8) (*PreparedFrag, bool) {
	h := fragKeyHash(d, variant)
	c.mu.RLock()
	for _, e := range c.buckets[h] {
		if e.variant == variant && e.key.Equal(d) {
			c.mu.RUnlock()
			c.hits.Add(1)
			return e.frag, true
		}
	}
	c.mu.RUnlock()
	c.misses.Add(1)
	return nil, false
}

func (c *refFragCache) Store(d DNF, variant uint8, f *PreparedFrag) *PreparedFrag {
	h := fragKeyHash(d, variant)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.buckets[h] {
		if e.variant == variant && e.key.Equal(d) {
			return e.frag
		}
	}
	if c.n >= c.max {
		return f
	}
	f.cached = true
	c.buckets[h] = append(c.buckets[h], &refFragCacheEntry{key: d, variant: variant, frag: f})
	c.n++
	return f
}

func (c *refFragCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.n
}

// fragOracleKey is the fuzz target's i-th key (i < 256): the false DNF,
// the true DNF, then two-clause fragments over 32 variables, all
// pairwise distinct.
func fragOracleKey(i int) DNF {
	switch i {
	case 0:
		return DNF{}
	case 1:
		return DNF{Clause{}}
	}
	return DNF{
		MustClause(Atom{Var: Var(i % 16), Val: True}),
		MustClause(Atom{Var: Var(16 + i/16), Val: Val(i % 2)}),
	}
}

// FuzzFragCacheMatchesMapOracle runs one Store/Lookup sequence on the
// arena table and on the map table it replaced. The first byte picks the
// entry cap (0: the default, else 1..47, so the cache fills); each
// further pair of bytes is one operation: bit 0 of the first picks
// Lookup over Store, bits 1-2 the variant, bit 3 a clone of the key
// (structural, not pointer, equality); the second byte names one of 256
// keys. 256 keys under four variants grow the table from 16 to 2048
// slots. Every operation must return the same canonical entry, and the
// hit and miss counts and Len must agree after each. Last, the cache
// goes through Save and LoadFragCache: the loaded cache must answer
// every key the oracle holds with an equal prepared form.
func FuzzFragCacheMatchesMapOracle(f *testing.F) {
	f.Add([]byte{}) // the rest of the seed corpus is in testdata/fuzz
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		limit := int(data[0] % 48)
		got, ref := NewFragCache(limit), newRefFragCache(limit)
		for i := 1; i+1 < len(data); i += 2 {
			op, k := data[i], int(data[i+1])
			variant := op >> 1 & 3
			key := fragOracleKey(k)
			if op&8 != 0 {
				key = key.Clone()
			}
			if op&1 == 0 {
				p := &PreparedFrag{D: key, Lo: float64(k) / 256, Hi: 1, Work: int64(i)}
				if g, r := got.Store(key, variant, p), ref.Store(key, variant, p); g != r {
					t.Fatalf("op %d: Store(key %d, variant %d) returned %p, map oracle %p", i/2, k, variant, g, r)
				}
			} else {
				g, gok := got.Lookup(key, variant)
				r, rok := ref.Lookup(key, variant)
				if g != r || gok != rok {
					t.Fatalf("op %d: Lookup(key %d, variant %d) = %p, %v; map oracle %p, %v", i/2, k, variant, g, gok, r, rok)
				}
			}
			st := got.CacheStats()
			if st.Hits != ref.hits.Load() || st.Misses != ref.misses.Load() || st.Entries != int64(ref.Len()) {
				t.Fatalf("op %d: stats %+v, map oracle hits %d misses %d entries %d",
					i/2, st, ref.hits.Load(), ref.misses.Load(), ref.Len())
			}
		}
		var buf bytes.Buffer
		if err := got.Save(&buf); err != nil {
			t.Fatalf("Save: %v", err)
		}
		loaded, err := LoadFragCache(&buf, limit)
		if err != nil || loaded.Len() != ref.Len() {
			t.Fatalf("LoadFragCache: %d entries (%v), map oracle %d", loaded.Len(), err, ref.Len())
		}
		for _, bucket := range ref.buckets {
			for _, e := range bucket {
				g, ok := loaded.Lookup(e.key, e.variant)
				w := e.frag
				if !ok || !g.D.Equal(w.D) || g.Lo != w.Lo || g.Hi != w.Hi || g.Exact != w.Exact || g.Work != w.Work {
					t.Fatalf("loaded Lookup(%v, variant %d) = %+v, %v; map oracle %+v", e.key, e.variant, g, ok, w)
				}
			}
		}
	})
}
