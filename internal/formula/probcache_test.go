package formula

import (
	"sync"
	"testing"
)

func cacheTestDNFs(t *testing.T) (*Space, []DNF) {
	t.Helper()
	s := NewSpace()
	x := s.AddBool(0.3)
	y := s.AddBool(0.5)
	z := s.AddBool(0.7)
	mk := func(atoms ...Atom) Clause {
		c, ok := NewClause(atoms...)
		if !ok {
			t.Fatal("inconsistent test clause")
		}
		return c
	}
	return s, []DNF{
		NewDNF(mk(Pos(x)), mk(Pos(y))),
		NewDNF(mk(Pos(x)), mk(Pos(z))),
		NewDNF(mk(Pos(y), Pos(z))),
		NewDNF(mk(Neg(x), Pos(y)), mk(Pos(z))),
	}
}

func TestDNFHashEqual(t *testing.T) {
	_, ds := cacheTestDNFs(t)
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

func TestProbCacheLookupStore(t *testing.T) {
	s, ds := cacheTestDNFs(t)
	c := NewProbCache(0)
	if _, ok := c.Lookup(ds[0]); ok {
		t.Fatal("hit on empty cache")
	}
	p := BruteForceProbability(s, ds[0])
	c.Store(ds[0], p)
	got, ok := c.Lookup(ds[0].Clone())
	if !ok || got != p {
		t.Fatalf("Lookup = (%v, %v), want (%v, true)", got, ok, p)
	}
	if st := c.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("CacheStats = (%d, %d), want (1, 1)", st.Hits, st.Misses)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestProbCacheCapacity(t *testing.T) {
	_, ds := cacheTestDNFs(t)
	c := NewProbCache(2)
	for i, d := range ds {
		c.Store(d, float64(i))
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want capacity cap 2", c.Len())
	}
	// Storing an already-present entry past capacity must not duplicate.
	c.Store(ds[0], 0)
	if c.Len() != 2 {
		t.Fatalf("Len = %d after duplicate store, want 2", c.Len())
	}
}

func TestProbCacheConcurrent(t *testing.T) {
	s, ds := cacheTestDNFs(t)
	c := NewProbCache(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				for _, d := range ds {
					want := BruteForceProbability(s, d)
					if p, ok := c.Lookup(d); ok && p != want {
						t.Errorf("cache returned %v for P=%v", p, want)
						return
					}
					c.Store(d, want)
				}
			}
		}()
	}
	wg.Wait()
	if c.Len() != len(ds) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(ds))
	}
}
