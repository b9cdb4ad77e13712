package formula

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func persistTestCache(t *testing.T) (*FragCache, []DNF) {
	t.Helper()
	c := NewFragCache(0)
	var keys []DNF
	for i := 0; i < 8; i++ {
		x, y := Var(2*i), Var(2*i+1)
		ca, _ := NewClause(Pos(x), Pos(y))
		cb, _ := NewClause(Neg(x))
		key := DNF{ca, cb}
		lo, hi := 0.1*float64(i+1)/10, 0.2*float64(i+1)/10
		if i%2 == 0 {
			hi = lo // an exact entry is a point
		}
		frag := &PreparedFrag{
			D:     DNF{ca, cb},
			Lo:    lo,
			Hi:    hi,
			Exact: i%2 == 0,
			Work:  int64(10 + i),
		}
		c.Store(key, uint8(i%2), frag)
		keys = append(keys, key)
	}
	return c, keys
}

func TestFragCacheSaveLoadRoundtrip(t *testing.T) {
	c, keys := persistTestCache(t)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := LoadFragCache(&buf, 0)
	if err != nil {
		t.Fatalf("LoadFragCache: %v", err)
	}
	if loaded.Len() != c.Len() {
		t.Fatalf("loaded %d entries, want %d", loaded.Len(), c.Len())
	}
	for i, key := range keys {
		want, ok := c.Lookup(key, uint8(i%2))
		if !ok {
			t.Fatalf("original cache lost key %d", i)
		}
		got, ok := loaded.Lookup(key, uint8(i%2))
		if !ok {
			t.Fatalf("loaded cache missing key %d", i)
		}
		if !got.D.Equal(want.D) || got.Lo != want.Lo || got.Hi != want.Hi ||
			got.Exact != want.Exact || got.Work != want.Work {
			t.Fatalf("entry %d mismatch: got %+v want %+v", i, got, want)
		}
		// The other variant must stay invisible.
		if _, ok := loaded.Lookup(key, uint8((i+1)%2)); ok {
			t.Fatalf("entry %d visible under wrong variant", i)
		}
	}
}

func TestFragCacheLoadVersionMismatchFallsBackEmpty(t *testing.T) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(fragHeaderGob{Magic: fragCacheMagic, Version: fragCacheVersion + 1}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(3); err != nil {
		t.Fatal(err)
	}
	c, err := LoadFragCache(&buf, 0)
	if err != nil {
		t.Fatalf("version mismatch must fall back, not fail: %v", err)
	}
	if c.Len() != 0 {
		t.Fatalf("version mismatch loaded %d entries, want 0", c.Len())
	}

	// Arbitrary non-fragcache bytes also fall back to a cold cache.
	c, err = LoadFragCache(bytes.NewBufferString("not a fragcache"), 0)
	if err != nil || c.Len() != 0 {
		t.Fatalf("garbage input: cache len %d err %v, want empty and nil", c.Len(), err)
	}
}

func TestFragCacheLoadTruncatedColdStart(t *testing.T) {
	// Truncation at every suffix length: whatever byte the crash cut the
	// save at, the load must come back empty (cold start) and usable —
	// never a partial or corrupt warm state.
	c, _ := persistTestCache(t)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, cutAt := range []int{buf.Len() - 1, buf.Len() - 10, buf.Len() / 2, 20, 1} {
		loaded, err := LoadFragCache(bytes.NewReader(buf.Bytes()[:cutAt]), 0)
		if loaded == nil {
			t.Fatalf("cut at %d: no usable cache returned", cutAt)
		}
		if loaded.Len() != 0 {
			t.Fatalf("cut at %d: loaded %d entries, want a cold (empty) cache (err %v)", cutAt, loaded.Len(), err)
		}
	}
}

func TestFragCacheLoadFlippedByteColdStart(t *testing.T) {
	// A single flipped payload byte must fail the checksum and cold-start
	// rather than warm-start from corrupt decompositions. Bytes near the
	// start flip the header instead — also a cold start, via the magic or
	// version check — so every position is corruption-safe.
	c, _ := persistTestCache(t)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{5, 40, buf.Len() / 2, buf.Len() - 3} {
		raw := bytes.Clone(buf.Bytes())
		raw[pos] ^= 0x40
		loaded, err := LoadFragCache(bytes.NewReader(raw), 0)
		if loaded == nil {
			t.Fatalf("flip at %d: no usable cache returned", pos)
		}
		if loaded.Len() != 0 {
			t.Fatalf("flip at %d: loaded %d entries, want a cold (empty) cache (err %v)", pos, loaded.Len(), err)
		}
	}
}

func TestFragCacheSaveFileCrashLeavesOldSnapshotIntact(t *testing.T) {
	// SaveFile's tmp+rename contract: a save that dies mid-write only
	// ever touches the sibling .tmp file, so the last complete snapshot
	// at path stays loadable. Simulated by planting a torn .tmp (what a
	// killed save leaves behind) next to a good snapshot.
	dir := t.TempDir()
	path := dir + "/frags.gob"
	c, keys := persistTestCache(t)
	if err := c.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	if err := os.WriteFile(path+".tmp", []byte("torn mid-write"), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFragCacheFile(path, 0)
	if err != nil {
		t.Fatalf("LoadFragCacheFile after torn tmp: %v", err)
	}
	if loaded.Len() != c.Len() {
		t.Fatalf("old snapshot lost: %d entries, want %d", loaded.Len(), c.Len())
	}
	if _, ok := loaded.Lookup(keys[0], 0); !ok {
		t.Fatal("old snapshot missing a persisted fragment")
	}
	// A subsequent complete save replaces both the stale tmp and the
	// snapshot.
	if err := c.SaveFile(path); err != nil {
		t.Fatalf("SaveFile over stale tmp: %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("stale tmp survived a successful save: %v", err)
	}
}

func TestFragCacheLoadFileMissingColdStart(t *testing.T) {
	loaded, err := LoadFragCacheFile(t.TempDir()+"/never-saved.gob", 0)
	if err != nil {
		t.Fatalf("missing file must cold-start silently: %v", err)
	}
	if loaded.Len() != 0 {
		t.Fatalf("missing file loaded %d entries", loaded.Len())
	}
}

func TestFragCacheLoadRespectsMaxEntries(t *testing.T) {
	c, _ := persistTestCache(t)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFragCache(&buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 3 {
		t.Fatalf("bounded load stored %d entries, want 3", loaded.Len())
	}
}

func TestFragCacheSaveLoadSurvivesRestartLookup(t *testing.T) {
	// The serving scenario: prepare-once before "restart", hit after.
	c, keys := persistTestCache(t)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	warm, err := LoadFragCache(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := warm.CacheStats()
	if base.Hits != 0 || base.Misses != 0 {
		t.Fatalf("traffic counters must start cold after load: %+v", base)
	}
	if _, ok := warm.Lookup(keys[0], 0); !ok {
		t.Fatal("warm cache missed a persisted fragment")
	}
	if s := warm.CacheStats(); s.Hits != 1 {
		t.Fatalf("expected 1 hit after warm lookup, got %+v", s)
	}
}

// readFuzzBytes returns the []byte value of a one-argument corpus file
// in testdata/fuzz.
func readFuzzBytes(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	lit, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
	if !ok || len(lines) != 2 {
		t.Fatalf("%s: not a one-argument []byte corpus file", path)
	}
	v, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(v)
}

// The committed real-save fixture was written while entries still
// carried their component partition (fragEntryGob's old Comps field).
// The format stays v3 without it: gob skips the field, every entry
// loads, none carries a decision (decisions are never persisted), and
// a reload of what it saves now holds the same entries.
func TestFragCacheLoadsSaveWrittenWithComps(t *testing.T) {
	data := readFuzzBytes(t, "testdata/fuzz/FuzzLoadFragCache/real-save")
	if !bytes.Contains(data, []byte("Comps")) {
		t.Fatal("fixture does not declare the Comps field it is meant to pin")
	}
	c, err := LoadFragCache(bytes.NewReader(data), 0)
	if err != nil {
		t.Fatalf("LoadFragCache: %v", err)
	}
	if c.Len() != 11 {
		t.Fatalf("loaded %d entries, want the fixture's 11", c.Len())
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	again, err := LoadFragCache(&buf, 0)
	if err != nil || again.Len() != c.Len() {
		t.Fatalf("re-save reloads %d entries (%v), want %d", again.Len(), err, c.Len())
	}
	for p := range c.Len() {
		e := c.entry(p)
		if e.frag.Decision() != nil {
			t.Fatalf("entry %v loaded with a decision", e.key)
		}
		got, ok := again.Lookup(e.key, e.variant)
		if !ok || !got.D.Equal(e.frag.D) || got.Lo != e.frag.Lo || got.Hi != e.frag.Hi ||
			got.Exact != e.frag.Exact || got.Work != e.frag.Work {
			t.Fatalf("entry %v (variant %d) did not survive a re-save: %+v", e.key, e.variant, got)
		}
	}
}

// FuzzLoadFragCache pins LoadFragCache's cold-start contract on
// arbitrary bytes: it never panics, always returns a usable cache, and
// returns an error only together with an empty one. The seed corpus in
// testdata/fuzz holds a real save with prepared and exact-variant
// entries, that save truncated and with a payload byte flipped, a wrong
// magic, a version-2 header and an oversized entry count.
func FuzzLoadFragCache(f *testing.F) {
	f.Add([]byte{})
	probe := DNF{MustClause(Pos(0))}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := LoadFragCache(bytes.NewReader(data), 0)
		if c == nil {
			t.Fatalf("nil cache (err %v)", err)
		}
		if err != nil && c.Len() != 0 {
			t.Fatalf("error %v came with %d loaded entries, want a cold (empty) cache", err, c.Len())
		}
		for i := range c.Len() {
			if e := c.entry(i).frag; !(0 <= e.Lo && e.Lo <= e.Hi && e.Hi <= 1) || e.Exact && e.Lo != e.Hi {
				t.Fatalf("loaded entry %d breaks the bounds contract: lo %v, hi %v, exact %t", i, e.Lo, e.Hi, e.Exact)
			}
		}
		c.Store(probe, 0, &PreparedFrag{D: probe, Lo: 0.5, Hi: 0.5, Exact: true})
		if _, ok := c.Lookup(probe, 0); !ok {
			t.Fatal("loaded cache does not serve a fresh entry")
		}
	})
}

// A save whose checksum is valid but whose entries break the bounds
// contract — an inverted, NaN or out-of-range interval, or an exact
// entry that is not a point — loads as a cold start with an error,
// like a checksum mismatch: never a partial cache, and never an entry a
// refinement would replay as a prepared fragment.
func TestFragCacheLoadRejectsBrokenBounds(t *testing.T) {
	for _, tc := range []struct {
		name   string
		lo, hi float64
		exact  bool
	}{
		{"inverted", 0.6, 0.4, false},
		{"NaN lo", math.NaN(), 0.4, false},
		{"NaN hi", 0.2, math.NaN(), false},
		{"negative lo", -0.1, 0.4, false},
		{"hi above one", 0.2, 1.5, false},
		{"exact interval", 0.2, 0.4, true},
	} {
		c, keys := persistTestCache(t)
		bad := DNF{MustClause(Pos(100))}
		c.Store(bad, 0, &PreparedFrag{D: bad, Lo: tc.lo, Hi: tc.hi, Exact: tc.exact})
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadFragCache(&buf, 0)
		if err == nil || loaded.Len() != 0 {
			t.Errorf("%s: loaded %d entries with error %v, want a cold start with an error", tc.name, loaded.Len(), err)
		}
		if _, ok := loaded.Lookup(keys[0], 0); ok {
			t.Errorf("%s: a valid entry before the broken one was kept", tc.name)
		}
	}
}

// Save writes entries in insertion order: two saves of one cache are
// byte-identical, and so is the save of what a save loads.
func TestFragCacheSaveDeterministic(t *testing.T) {
	c := NewFragCache(0)
	for i := 0; i < 50; i++ {
		d := fragTestDNF(3 * i)
		lo, hi := float64(i)/100, 0.9
		if i%5 == 0 {
			hi = lo // an exact entry is a point
		}
		c.Store(d, uint8(i%3), &PreparedFrag{D: d, Lo: lo, Hi: hi, Exact: i%5 == 0, Work: int64(i)})
	}
	save := func(c *FragCache) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatalf("Save: %v", err)
		}
		return buf.Bytes()
	}
	first, second := save(c), save(c)
	if !bytes.Equal(first, second) {
		t.Fatal("two saves of one cache differ")
	}
	loaded, err := LoadFragCache(bytes.NewReader(first), 0)
	if err != nil {
		t.Fatalf("LoadFragCache: %v", err)
	}
	if again := save(loaded); !bytes.Equal(first, again) {
		t.Fatal("the save of a loaded save differs from it")
	}
}

// checkLoadedPrefix reports whether the entries of loaded are, in
// order, the first loaded.Len() entries of c: the same keys and
// variants with equal prepared forms. c may be growing: like Save, it
// snapshots c's count and segment headers under its lock.
func checkLoadedPrefix(loaded, c *FragCache) error {
	c.mu.RLock()
	n, segs := c.n, c.segs
	c.mu.RUnlock()
	if loaded.Len() > n {
		return fmt.Errorf("loaded %d entries, the cache holds %d", loaded.Len(), n)
	}
	for p := range loaded.Len() {
		k, off := segment(p)
		got, want := loaded.entry(p), &segs[k][off]
		g, w := got.frag, want.frag
		if !got.key.Equal(want.key) || got.variant != want.variant || !g.D.Equal(w.D) ||
			g.Lo != w.Lo || g.Hi != w.Hi || g.Exact != w.Exact || g.Work != w.Work {
			return fmt.Errorf("loaded entry %d is %v (variant %d) %+v, the cache's %v (variant %d) %+v",
				p, got.key, got.variant, g, want.key, want.variant, w)
		}
	}
	return nil
}

// saveBytes returns c's save, or fails t.
func saveBytes(t *testing.T, c *FragCache) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

// Save → LoadFragCache → Save round trips at the arena's segment
// boundaries: one entry short of, at and past the first segment's 8,
// at and past the second's 16, and one past 4 096, where the table
// doubles and the eleventh segment opens. The load holds every entry in insertion order and its
// save is byte-identical.
func TestFragCacheSaveRoundTripsAcrossSegments(t *testing.T) {
	for _, n := range []int{7, 8, 9, 16, 17, 4097} {
		c := NewFragCache(0)
		for i := range n {
			d := fragTestDNF(3 * i)
			lo, hi := float64(i%100)/100, 0.99
			if i%5 == 0 {
				hi = lo // an exact entry is a point
			}
			c.Store(d, uint8(i%3), &PreparedFrag{D: d, Lo: lo, Hi: hi, Exact: i%5 == 0, Work: int64(i)})
		}
		first := saveBytes(t, c)
		loaded, err := LoadFragCache(bytes.NewReader(first), 0)
		if err != nil || loaded.Len() != n {
			t.Fatalf("n=%d: loaded %d entries (%v), want %d", n, loaded.Len(), err, n)
		}
		if err := checkLoadedPrefix(loaded, c); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if again := saveBytes(t, loaded); !bytes.Equal(first, again) {
			t.Fatalf("n=%d: the save of a loaded save differs from it", n)
		}
	}
}

// Save runs while four writers store 1 100 distinct fragments, past
// entries 8, 16, 32 and 1 024, where the arena opens a segment. Each
// writer waits for the next save to finish after its 1st, 2nd, 4th, …
// store and then after every 32nd, so saves interleave with the whole
// fill. Every save loads back to a prefix of the cache's insertion
// order, and the save of what it loaded is byte-identical to it.
func TestFragCacheSaveDuringSegmentGrowth(t *testing.T) {
	const writers, keys = 4, 1100
	c := NewFragCache(0)
	var wg, bg sync.WaitGroup
	var done, failed atomic.Bool
	var saved atomic.Int64
	longest := 0
	check := func() bool {
		b := saveBytes(t, c)
		loaded, err := LoadFragCache(bytes.NewReader(b), 0)
		if err != nil {
			t.Errorf("LoadFragCache of a concurrent Save: %v", err)
			return false
		}
		if err := checkLoadedPrefix(loaded, c); err != nil {
			t.Errorf("save %d: %v", saved.Load(), err)
			return false
		}
		if again := saveBytes(t, loaded); !bytes.Equal(b, again) {
			t.Errorf("save %d (%d entries): the save of what it loaded differs from it", saved.Load(), loaded.Len())
			return false
		}
		longest = max(longest, loaded.Len())
		saved.Add(1)
		return true
	}
	bg.Add(1)
	go func() {
		defer bg.Done()
		for !done.Load() {
			if !check() {
				failed.Store(true)
				return
			}
		}
	}()
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := w; k < keys; k += writers {
				d := fragTestDNF(3 * k)
				c.Store(d, uint8(k%2), &PreparedFrag{D: d, Lo: float64(k) / keys, Hi: 1, Work: int64(k)})
				if n := k/writers + 1; n&(n-1) == 0 || n%32 == 0 {
					for last := saved.Load(); saved.Load() == last && !failed.Load(); {
						runtime.Gosched()
					}
				}
			}
		}()
	}
	wg.Wait()
	done.Store(true)
	bg.Wait()
	if !check() || longest != keys {
		t.Fatalf("the last save loaded %d entries, want %d", longest, keys)
	}
	t.Logf("%d saves", saved.Load())
}
