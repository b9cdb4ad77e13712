package formula

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// The FragCache disk format is a gob stream: a header first, then one
// body record holding the CRC32 checksum and the gob-encoded entry
// payload. The header carries a magic string and a format version;
// LoadFragCache treats any mismatch — wrong magic, older or newer
// version, checksum failure, truncation — as "no warm state" rather
// than an error, so a daemon restarting across an incompatible upgrade
// or a torn write falls back to a cold cache instead of refusing to
// start or (worse) warm-starting from corrupt decompositions.
//
// Version history: v1 had no checksum; v2 wraps the entry stream in a
// CRC32-checksummed payload; v3 entries always carry the full Work
// charge (v2's depended on a ProbCache being configured, keyed into
// Variant). Older files load as a cold start. Exact point entries added
// a variant value, not a new meaning for the existing ones, so they
// stayed v3; entries under the preparation variants older builds keyed
// by their switches still load, and are never looked up.
// Entries no longer carry their component partition: older v3 saves
// have a Comps field, which gob skips on load, so they still load whole.
// The Decision that replaced the partition is not persisted (it points
// at other entries); a loaded entry re-derives it on its first
// decomposition. What a v3 entry means is unchanged, so no version bump.
const (
	fragCacheMagic   = "repro.fragcache"
	fragCacheVersion = 3
)

type fragHeaderGob struct {
	Magic   string
	Version int
}

// fragBodyGob is the v2 body: the IEEE CRC32 of Payload, then the
// payload itself — an inner gob stream of the entry count followed by
// that many fragEntryGob records. Checksumming the already-encoded
// bytes keeps verification independent of gob's type negotiation: the
// sum either matches the exact bytes written or the file is discarded.
type fragBodyGob struct {
	Sum     uint32
	Payload []byte
}

type fragEntryGob struct {
	Key     DNF
	Variant uint8
	D       DNF
	Lo, Hi  float64
	Exact   bool
	Work    int64
}

// keepsBounds reports whether g keeps PreparedFrag's bounds contract:
// 0 ≤ Lo ≤ Hi ≤ 1, neither bound NaN, and Exact only when Lo == Hi.
func (g *fragEntryGob) keepsBounds() bool {
	return 0 <= g.Lo && g.Lo <= g.Hi && g.Hi <= 1 && (!g.Exact || g.Lo == g.Hi)
}

// Save writes the cache's memoized fragments to w in the versioned,
// CRC32-checksummed gob format LoadFragCache reads — the warm-start
// path for a long-lived query service: persist the prepared-fragment
// cache at shutdown, load it at startup, and the first queries after a
// restart skip leaf preparation exactly as if the process had never
// died. Traffic counters (hits/misses) are process-local and not
// persisted.
//
// Save writes the entries in insertion order, so two saves of one cache
// are byte-identical, and so are a save and the save of what it loads
// (LoadFragCache stores in file order). It snapshots the arena's count
// and segment headers under the cache's read lock; entries stored
// concurrently with the snapshot may or may not be included. Entries
// embed the probability space's variable identities, so a saved cache
// is only meaningful to a process rebuilding the identical Space (same
// generator, same seed) — the same rule as sharing a live cache.
func (c *FragCache) Save(w io.Writer) error {
	// A segment's array never moves and an entry never changes once
	// counted: the snapshot can be read after the lock is released.
	c.mu.RLock()
	n := c.n
	var segs [fragCacheSegs][]fragCacheEntry
	if c.segs != nil {
		segs = *c.segs
	}
	c.mu.RUnlock()

	var payload bytes.Buffer
	penc := gob.NewEncoder(&payload)
	if err := penc.Encode(n); err != nil {
		return fmt.Errorf("formula: FragCache.Save count: %w", err)
	}
	for p := range n {
		k, off := segment(p)
		e := &segs[k][off]
		g := fragEntryGob{
			Key:     e.key,
			Variant: e.variant,
			D:       e.frag.D,
			Lo:      e.frag.Lo,
			Hi:      e.frag.Hi,
			Exact:   e.frag.Exact,
			Work:    e.frag.Work,
		}
		if err := penc.Encode(g); err != nil {
			return fmt.Errorf("formula: FragCache.Save entry: %w", err)
		}
	}

	enc := gob.NewEncoder(w)
	if err := enc.Encode(fragHeaderGob{Magic: fragCacheMagic, Version: fragCacheVersion}); err != nil {
		return fmt.Errorf("formula: FragCache.Save header: %w", err)
	}
	body := fragBodyGob{Sum: crc32.ChecksumIEEE(payload.Bytes()), Payload: payload.Bytes()}
	if err := enc.Encode(body); err != nil {
		return fmt.Errorf("formula: FragCache.Save body: %w", err)
	}
	return nil
}

// SaveFile persists the cache to path crash-safely: the bytes are
// written to a sibling temp file, synced, and renamed over path, so a
// process killed mid-save leaves the previous snapshot intact — the
// file at path is always a complete save (which LoadFragCache then
// verifies by checksum).
func (c *FragCache) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("formula: FragCache.SaveFile: %w", err)
	}
	if err := c.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("formula: FragCache.SaveFile sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("formula: FragCache.SaveFile close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("formula: FragCache.SaveFile rename: %w", err)
	}
	return nil
}

// LoadFragCache reads a cache saved by Save into a fresh FragCache
// bounded at maxEntries (<= 0 means DefaultFragCacheEntries; entries
// beyond the bound are dropped). The cold-start contract: a stream
// that is not a current-version fragcache save — wrong magic, version
// skew, truncation, a checksum mismatch from a flipped byte, an entry
// whose bounds break PreparedFrag's contract (outside [0, 1], NaN,
// Lo > Hi, or Exact with Lo != Hi) — yields an EMPTY cache, never a
// partial or corrupt one. The returned cache
// is always usable; the error, when non-nil, only explains why the
// start is cold (callers typically log it and carry on).
func LoadFragCache(r io.Reader, maxEntries int) (*FragCache, error) {
	c := NewFragCache(maxEntries)
	dec := gob.NewDecoder(r)
	var h fragHeaderGob
	if err := dec.Decode(&h); err != nil {
		return c, nil // not a fragcache stream at all: cold start
	}
	if h.Magic != fragCacheMagic || h.Version != fragCacheVersion {
		return c, nil // version skew (including v1 saves): cold start
	}
	var body fragBodyGob
	if err := dec.Decode(&body); err != nil {
		return c, fmt.Errorf("formula: LoadFragCache body (truncated save?): %w", err)
	}
	if sum := crc32.ChecksumIEEE(body.Payload); sum != body.Sum {
		return c, fmt.Errorf("formula: LoadFragCache checksum mismatch (%08x != %08x): corrupt save", sum, body.Sum)
	}
	pdec := gob.NewDecoder(bytes.NewReader(body.Payload))
	var n int
	if err := pdec.Decode(&n); err != nil {
		return NewFragCache(maxEntries), fmt.Errorf("formula: LoadFragCache count: %w", err)
	}
	for i := 0; i < n; i++ {
		var g fragEntryGob
		if err := pdec.Decode(&g); err != nil {
			// The checksum matched, so this is an encoder-side bug, not
			// disk corruption — still cold-start rather than trust a
			// half-decoded cache.
			return NewFragCache(maxEntries), fmt.Errorf("formula: LoadFragCache entry %d of %d: %w", i, n, err)
		}
		if !g.keepsBounds() {
			// A checksum only proves the bytes are the ones written; an
			// entry whose bounds no preparation produces would be
			// replayed as a prepared fragment, so the whole save goes.
			return NewFragCache(maxEntries), fmt.Errorf("formula: LoadFragCache entry %d of %d breaks the bounds contract (lo %v, hi %v, exact %t): corrupt save",
				i, n, g.Lo, g.Hi, g.Exact)
		}
		c.Store(g.Key, g.Variant, &PreparedFrag{D: g.D, Lo: g.Lo, Hi: g.Hi, Exact: g.Exact, Work: g.Work})
	}
	return c, nil
}

// LoadFragCacheFile is LoadFragCache over a file path, folding "no
// such file" into the cold-start contract: a missing file returns an
// empty cache and a nil error, any other open failure an empty cache
// and the failure.
func LoadFragCacheFile(path string, maxEntries int) (*FragCache, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return NewFragCache(maxEntries), nil
		}
		return NewFragCache(maxEntries), fmt.Errorf("formula: LoadFragCacheFile: %w", err)
	}
	defer f.Close()
	return LoadFragCache(f, maxEntries)
}
