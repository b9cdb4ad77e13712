package core

import (
	"math"
	"sync"

	"repro/internal/formula"
)

// This file holds the leaf-preparation hot path. Every d-tree node the
// compiler constructs starts as a prepared fragment — normalization,
// subsumption removal, and the Figure 3 heuristic bounds — and
// profiling showed that preparation, not refinement bookkeeping,
// dominated the canonical ranking workloads (>50% of samples). Four
// mechanisms make preparation proportional to *new* work:
//
//   - a prepared-fragment cache (formula.FragCache, Options.Frags):
//     identical subformulas across the answers of a query and across
//     Shannon siblings prepare once, and the decomposition step a later
//     refinement applies is memoized on the entry (formula.Decision,
//     see decompose): a warm refinement replays the kind, the children's
//     entries and their weights instead of re-running the step,
//     restricting and looking each child up;
//   - construction-aware shortcuts: decomposition children are
//     duplicate-free by construction, and component children are
//     subsumption-free too, so leafHead (figure1.go) skips Normalize /
//     RemoveSubsumed passes that would be content no-ops — and the
//     passes it does run return their input when they change nothing;
//   - one allocation per kind of memory per step: step (figure1.go)
//     writes all children of a decomposition into one clause block (and
//     the clauses ⊕ shortens into one atom block), and decompose hands
//     their cache entries one block of slots. The blocks are fresh per
//     step, never pooled: cache keys, entries and decisions alias them;
//   - pooled epoch-stamped scratch (prepScratch) for the remaining
//     per-prepare buffers: the leaf-bounds sort keys (probability and
//     clause index, bounds.go) / variable stamps and values, the
//     component partition and its union-find, the ⊙/⊕ analysis of the
//     decomposition step and its transient child list (factor.go,
//     varorder.go, figure1.go), and the stack of merged conjunctions of
//     the inclusion–exclusion walk (bounds.go). Deduplication —
//     Normalize, RemoveSubsumed, the ⊕ branches' Dedup — probes
//     formula's own pooled clause table (formula/hash.go).
//
// The original allocate-everything pipeline is refRefiner's half of
// oracle_test.go; the differential property tests in prepare_test.go
// prove both pipelines bitwise-identical across full refinement traces.

// prepScratch bundles the reusable buffers of leaf preparation. One
// scratch serves one preparation at a time; concurrent evaluations
// (conf()'s one task per answer, distinct Refiners) draw distinct
// scratches from prepPool.
type prepScratch struct {
	keys  [2][]probKey  // leafBounds: clause probabilities in bucket order, and the sort's other buffer
	st    []uint32      // leafBounds: per-bucket variable stamps
	val   []formula.Val // leafBounds: the value each variable stamped by the first pass occurs with
	epoch uint32        // current stamp epoch for st

	comp formula.CompScratch // component partition and its union-find

	step stepScan      // decomposition step: per-variable scan (⊙ and ⊕)
	fact factorScratch // decomposition step: ⊙ projection table
	subs []formula.DNF // decomposition step: the transient child list
	xval []formula.Val // ⊕ step: the expansion variable's value per clause, -1 if absent

	conj []formula.Atom // inclusionExclusion: the walk's stack of merged conjunctions
}

var prepPool = sync.Pool{New: func() any { return new(prepScratch) }}

// probKeys returns two length-n key buffers (contents undefined).
func (sc *prepScratch) probKeys(n int) (keys, spare []probKey) {
	if cap(sc.keys[0]) < n {
		sc.keys[0], sc.keys[1] = make([]probKey, n), make([]probKey, n)
	}
	return sc.keys[0][:n], sc.keys[1][:n]
}

// atoms returns a length-n atom buffer (contents undefined).
func (sc *prepScratch) atoms(n int) []formula.Atom {
	if cap(sc.conj) < n {
		sc.conj = make([]formula.Atom, n)
	}
	return sc.conj[:n]
}

// xvals returns a length-n value buffer (contents undefined).
func (sc *prepScratch) xvals(n int) []formula.Val {
	if cap(sc.xval) < n {
		sc.xval = make([]formula.Val, n)
	}
	return sc.xval[:n]
}

// vals returns a length-n value buffer. An entry is meaningful only
// where st holds an epoch of the current call, so it is never cleared.
func (sc *prepScratch) vals(n int) []formula.Val {
	if cap(sc.val) < n {
		sc.val = make([]formula.Val, n)
	}
	return sc.val[:n]
}

// stamps returns the stamp buffer grown to cover n entries. Entries
// are validated by comparison against epochs issued by nextEpoch, so
// stale contents never need clearing.
func (sc *prepScratch) stamps(n int) []uint32 {
	if cap(sc.st) < n {
		grown := make([]uint32, n)
		copy(grown, sc.st)
		sc.st = grown
	}
	sc.st = sc.st[:n]
	return sc.st
}

// nextEpoch starts a fresh stamp epoch, clearing the buffer on the
// (once per 2^32 buckets) wraparound so stale stamps cannot alias it.
func (sc *prepScratch) nextEpoch() uint32 {
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.st)
		sc.epoch = 1
	}
	return sc.epoch
}

// epochPair starts two fresh stamp epochs of one wraparound cycle, so
// the clear cannot fall between them and strand stamps of the first.
func (sc *prepScratch) epochPair() (a, b uint32) {
	a = sc.nextEpoch()
	if a == math.MaxUint32 {
		a = sc.nextEpoch() // wraps: clears st and returns 1
	}
	return a, sc.nextEpoch()
}

// prepVariant encodes the Options switches preparation depends on —
// the ablation flags that change the prepared form or its bounds. The
// FragCache partitions its key space by it, so evaluations with
// different settings can share one cache.
func prepVariant(opt Options) uint8 {
	v := uint8(0)
	if opt.DisableSubsumption {
		v |= 1
	}
	if opt.DisableBucketSort {
		v |= 2
	}
	return v
}

// variantExact keys exact evaluation's entries in the same FragCache: a
// fragment exactRec has passed through leafHead, mapped to its exact
// probability as a point PreparedFrag. The bit lies outside
// prepVariant's, so exact and prepared entries never answer each
// other's lookups. One variant serves every Order and ablation setting,
// which change how P is computed, not its value.
const variantExact uint8 = 1 << 7
