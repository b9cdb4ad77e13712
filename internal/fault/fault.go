// Package fault is the engine's fault-isolation and fault-injection
// layer: structured panic containment (PanicError, Promote) and a
// seeded deterministic Injector that fabricates errors, panics,
// latency, and spurious cancellations at named sites for chaos
// testing.
//
// Everything here is stdlib-only and nil-safe, mirroring the
// internal/obs pattern: a nil *Injector never fires and costs one
// pointer test plus one atomic load on the hot path, so production
// builds run with injection disabled at effectively zero cost.
package fault

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Named injection sites. Each is a point in the query pipeline where a
// production failure mode is plausible: an engine bug mid-refinement, a
// corrupt prepared fragment, a poisoned cache entry, a client socket
// going away mid-flush.
const (
	SiteEvalStep    = "eval.step"    // top of Refiner.Step's refinement loop
	SiteLeafPrepare = "leaf.prepare" // core prepareAs, before any real work
	SiteCacheLookup = "cache.lookup" // exact mode's FragCache consult (core lookupExact)
	SiteSSEFlush    = "sse.flush"    // before an SSE answer event is written
)

// ErrInjected marks every fabricated error so tests (and the chaos
// soak's "correct or cleanly errored" assertion) can tell injected
// failures from organic ones with errors.Is.
var ErrInjected = errors.New("injected fault")

// PanicError is a recovered panic promoted to a value that flows
// through the ordinary partial-results error plumbing: per-answer Err
// fields, the rank scheduler's error return, the SSE error event.
type PanicError struct {
	Val     any    // the value passed to panic
	Stack   []byte // goroutine stack captured at the recovery point
	Site    string // containment point ("workpool", "rank.grant", ...)
	QueryID string // stamped by the serving layer once known
}

func (e *PanicError) Error() string {
	if e.QueryID != "" {
		return fmt.Sprintf("panic recovered at %s (query %s): %v", e.Site, e.QueryID, e.Val)
	}
	return fmt.Sprintf("panic recovered at %s: %v", e.Site, e.Val)
}

// Unwrap exposes a panicked error value to errors.Is/As, so a contained
// panic(err) still matches err downstream.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Val.(error); ok {
		return err
	}
	return nil
}

// Promote converts a recovered value into a *PanicError. When v already
// is one — the workpool rethrows promoted values so containment layers
// compose — it is returned unchanged and first is false: the panic was
// counted (and its stack captured) at the original recovery point, so
// outer layers must not count it again.
func Promote(v any, site string) (pe *PanicError, first bool) {
	if pe, ok := v.(*PanicError); ok {
		return pe, false
	}
	return &PanicError{Val: v, Stack: debug.Stack(), Site: site}, true
}

// SiteConfig sets one site's fault schedule. Panic, Error, and Cancel
// are mutually exclusive per firing (evaluated in that order against a
// single deterministic draw, so Panic+Error+Cancel ≤ 1 is the caller's
// contract); Latency is an independent draw and composes with any of
// them.
type SiteConfig struct {
	Panic      float64       // probability of panicking
	Error      float64       // probability of returning an ErrInjected error
	Cancel     float64       // probability of returning a context.Canceled error
	Latency    float64       // probability of sleeping LatencyDur first
	LatencyDur time.Duration // sleep for latency faults (default 1ms)
}

// SiteStats counts what one site actually did, for test assertions.
type SiteStats struct {
	Fired   int64 // total Fire/FirePanic calls that reached the site
	Panics  int64
	Errors  int64
	Cancels int64
	Delays  int64
}

type siteState struct {
	cfg  SiteConfig
	hash uint64 // seed ⊕ fnv64a(site): the site's draw stream identity
	n    atomic.Uint64

	fired, panics, errs, cancels, delays atomic.Int64
}

// Injector fabricates faults at named sites with per-site
// probabilities. The outcome of firing k at a site is a pure function
// of (seed, site, k): each firing advances an atomic per-site counter
// and hashes it through splitmix64, so a fixed seed replays the same
// multiset of faults per site regardless of goroutine interleaving
// (under concurrency only the assignment of outcomes to callers
// varies). A nil Injector is valid and never fires.
type Injector struct {
	seed  uint64
	armed atomic.Bool

	mu    sync.RWMutex
	sites map[string]*siteState
}

// NewInjector returns an Injector with no sites configured. It stays
// inert (armed == false) until the first Configure call.
func NewInjector(seed int64) *Injector {
	return &Injector{seed: uint64(seed), sites: make(map[string]*siteState)}
}

// Configure sets (or replaces) a site's fault schedule and arms the
// injector. Safe to call concurrently with Fire.
func (in *Injector) Configure(site string, cfg SiteConfig) {
	if in == nil {
		return
	}
	if cfg.LatencyDur <= 0 {
		cfg.LatencyDur = time.Millisecond
	}
	h := fnv.New64a()
	h.Write([]byte(site))
	in.mu.Lock()
	in.sites[site] = &siteState{cfg: cfg, hash: in.seed ^ h.Sum64()}
	in.mu.Unlock()
	in.armed.Store(true)
}

func (in *Injector) site(name string) *siteState {
	if in == nil || !in.armed.Load() {
		return nil
	}
	in.mu.RLock()
	st := in.sites[name]
	in.mu.RUnlock()
	return st
}

// Fire consults site's schedule: it may sleep (latency), panic, or
// return a non-nil error — either ErrInjected-wrapped or
// context.Canceled-wrapped (spurious cancellation). Callers treat the
// returned error exactly like an organic failure on that path. Nil
// receiver and unconfigured sites return nil without any draw.
func (in *Injector) Fire(site string) error {
	st := in.site(site)
	if st == nil {
		return nil
	}
	n := st.n.Add(1)
	st.fired.Add(1)
	if st.cfg.Latency > 0 && unit(mix(st.hash+2*n)) < st.cfg.Latency {
		st.delays.Add(1)
		time.Sleep(st.cfg.LatencyDur)
	}
	u := unit(mix(st.hash + 2*n + 1))
	switch {
	case u < st.cfg.Panic:
		st.panics.Add(1)
		panic(fmt.Sprintf("fault: injected panic at %s (firing %d)", site, n))
	case u < st.cfg.Panic+st.cfg.Error:
		st.errs.Add(1)
		return fmt.Errorf("fault at %s (firing %d): %w", site, n, ErrInjected)
	case u < st.cfg.Panic+st.cfg.Error+st.cfg.Cancel:
		st.cancels.Add(1)
		return fmt.Errorf("fault at %s (firing %d): %w", site, n, context.Canceled)
	}
	return nil
}

// FirePanic is Fire for sites whose callers have no error return (leaf
// prepare, cache lookup): every fault kind surfaces as a panic, to be
// contained by the nearest recovery point. Without this, an injected
// error on an errorless path would be silently swallowed and corrupt
// the answer instead of failing it.
func (in *Injector) FirePanic(site string) {
	if err := in.Fire(site); err != nil {
		panic(fmt.Sprintf("fault: injected panic at %s: %v", site, err))
	}
}

// Stats snapshots every configured site's counters.
func (in *Injector) Stats() map[string]SiteStats {
	if in == nil {
		return nil
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	out := make(map[string]SiteStats, len(in.sites))
	for name, st := range in.sites {
		out[name] = SiteStats{
			Fired:   st.fired.Load(),
			Panics:  st.panics.Load(),
			Errors:  st.errs.Load(),
			Cancels: st.cancels.Load(),
			Delays:  st.delays.Load(),
		}
	}
	return out
}

// mix is splitmix64: a full-avalanche permutation of the firing index,
// so neighboring firings draw independent-looking uniforms while the
// whole stream replays exactly from (seed, site).
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a draw to [0, 1) with 53 uniform bits.
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }
