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
//     clause index, bounds.go) / variable stamps and values / star-cover
//     hub accumulators (its occurrence counts and hub places go in the
//     step's records), the decomposition step's per-variable records —
//     the ⊗ union-find (figure1.go) and the ⊙/⊕ analysis (factor.go,
//     varorder.go) — and its transient child list, and the stack of
//     merged conjunctions of the inclusion–exclusion walk (bounds.go).
//     Every stamp takes its epoch from one counter with one wraparound
//     path (epochs), and every buffer grows through one helper (grow)
//     by one rule: a short buffer is replaced by one of twice its
//     capacity, or of the size asked for if that is more.
//     Deduplication — Normalize, RemoveSubsumed, the ⊕ branches' Dedup
//     — probes formula's own pooled clause table (formula/hash.go).
//
// The original allocate-everything pipeline is refRefiner's half of
// oracle_test.go; the differential property tests in prepare_test.go
// prove both pipelines bitwise-identical across full refinement traces.

// prepScratch bundles the reusable buffers of leaf preparation. One
// scratch serves one preparation at a time; concurrent evaluations
// (conf()'s one task per answer, distinct Refiners) draw distinct
// scratches from prepPool.
type prepScratch struct {
	epoch uint32 // the last stamp epoch issued (see epochs)

	keys [2][]probKey  // leafBounds: clause probabilities in bucket order, and the sort's other buffer
	st   []uint32      // leafBounds: per-bucket variable stamps
	val  []formula.Val // leafBounds: the value each variable stamped by the first pass occurs with
	hubs []float64     // leafBounds: per hub of a positive leaf, P(hub) and the union of its clauses' rests

	step stepScan      // decomposition step: per-variable records (⊗, ⊙ and ⊕)
	fact factorScratch // decomposition step: ⊙ projection table
	subs []formula.DNF // decomposition step: the transient child list
	xval []formula.Val // ⊕ step: the expansion variable's value per clause, -1 if absent

	conj []formula.Atom // inclusionExclusion: the walk's stack of merged conjunctions
}

var prepPool = sync.Pool{New: func() any { return new(prepScratch) }}

// epochs issues n fresh stamp epochs, first to first+n-1. Every stamp
// the scratch holds is an epoch issued before (or zero, which is never
// issued), so a fresh one matches no stale entry and nothing is cleared
// between uses. An epoch stays valid until the next request on the
// scratch — a phase that needs two live epochs takes both in one call.
// That is what lets the one wraparound path, once per 2³² epochs, clear
// every stamp array the scratch owns: the varInfo stamps and marks, the
// leaf-bounds stamps and the projection slots.
func (sc *prepScratch) epochs(n uint32) (first uint32) {
	if sc.epoch > math.MaxUint32-n {
		info := sc.step.info[:cap(sc.step.info)]
		for i := range info {
			info[i].stamp, info[i].mark = 0, 0
		}
		clear(sc.st[:cap(sc.st)])
		clear(sc.fact.slots[:cap(sc.fact.slots)])
		sc.epoch = 0
	}
	sc.epoch += n
	return sc.epoch - n + 1
}

// grow returns buf resliced to length n. When its array is too short it
// is replaced by a zeroed one of max(n, 2·cap) entries, contents not
// copied: every caller overwrites what it reads or validates it by
// stamp, and a zero stamp is no epoch. Doubling is the one growth rule
// of every scratch buffer, so a run of requests that each ask for one
// more entry than the last reallocates O(log n) times, not n times.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, max(n, 2*cap(buf)))
	}
	return buf[:n]
}

// maxVar returns the largest variable of d, -1 when d has none: the
// per-variable arrays of a step or a leaf cover ids up to it.
func maxVar(d formula.DNF) formula.Var {
	top := formula.Var(-1)
	for _, c := range d {
		if n := len(c); n > 0 && c[n-1].Var > top {
			top = c[n-1].Var
		}
	}
	return top
}

// variantPrepared and variantExact partition Options.Frags, so ε > 0
// evaluation's prepared fragments and exact evaluation's point entries
// (a multi-clause fragment the exact mode has passed through leafHead,
// mapped to its exact probability) never answer each other's lookups.
// Saves from earlier builds hold their prepared entries under 0 too,
// and their exact entries under 1 << 7, as exact evaluation keys them
// still.
const (
	variantPrepared uint8 = 0
	variantExact    uint8 = 1 << 7
)
