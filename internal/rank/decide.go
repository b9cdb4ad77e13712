package rank

import (
	"container/heap"
	"sort"
)

// This file holds the event-driven decide pass and the width-ordered
// pick heap — the per-grant scheduling cost reduced from O(n²) (full
// answer-pair rescan) and O(n) (linear widest scan) to O(affected ·
// log n) and O(log n). The full-rescan implementations are the oracle
// in oracle_test.go; both make identical decisions in identical order
// (property-tested), because a grant tightens exactly one answer's
// interval and the index re-decides a superset of the answers that
// tightening can affect.

// entry pairs a bound value with its answer index; entry slices are
// kept sorted by (value asc, index asc), so equal-value runs are in
// index order and the tie-breaking beat counts resolve by search.
type entry struct {
	v   float64
	idx int
}

func entryLess(a, b entry) bool {
	if a.v != b.v {
		return a.v < b.v
	}
	return a.idx < b.idx
}

// gevent records one grant's interval tightening for the next decide
// pass.
type gevent struct {
	i            int
	oldLo, oldHi float64
	newLo, newHi float64
}

// decideIndex is the incremental decision state: every answer's current
// Lo and Hi filed in sorted order (top-k mode only — threshold
// decisions read a single answer's own bounds), plus the queue of
// grants since the last decide pass.
type decideIndex struct {
	ordered bool    // maintain the sorted arrays (top-k mode)
	los     []entry // all answers' Lo bounds
	his     []entry // all answers' Hi bounds
	events  []gevent
	mark    []int // per-answer stamp: already a candidate this pass
	stamp   int
	cand    []int
}

func newDecideIndex(items []Item, ordered bool) *decideIndex {
	ix := &decideIndex{ordered: ordered, mark: make([]int, len(items))}
	if !ordered {
		return ix
	}
	ix.los = make([]entry, len(items))
	ix.his = make([]entry, len(items))
	for i := range items {
		ix.los[i] = entry{items[i].Lo, i}
		ix.his[i] = entry{items[i].Hi, i}
	}
	sortEntries(ix.los)
	sortEntries(ix.his)
	return ix
}

func sortEntries(e []entry) {
	sort.Slice(e, func(a, b int) bool { return entryLess(e[a], e[b]) })
}

// update re-files answer i's bounds after a grant and queues the event
// for the next decide pass. No-op when the grant tightened nothing.
func (ix *decideIndex) update(i int, oldLo, oldHi, newLo, newHi float64) {
	if oldLo == newLo && oldHi == newHi {
		return
	}
	if ix.ordered {
		if newLo != oldLo {
			refile(ix.los, entry{oldLo, i}, entry{newLo, i})
		}
		if newHi != oldHi {
			refile(ix.his, entry{oldHi, i}, entry{newHi, i})
		}
	}
	ix.events = append(ix.events, gevent{i, oldLo, oldHi, newLo, newHi})
}

// refile moves one entry from its old sorted position to its new one
// with a single memmove (bounds move monotonically: Lo entries right,
// Hi entries left).
func refile(e []entry, old, moved entry) {
	p0 := sort.Search(len(e), func(k int) bool { return !entryLess(e[k], old) })
	p1 := sort.Search(len(e), func(k int) bool { return !entryLess(e[k], moved) })
	if entryLess(old, moved) {
		copy(e[p0:p1-1], e[p0+1:p1])
		e[p1-1] = moved
	} else {
		copy(e[p1+1:p0+1], e[p1:p0])
		e[p1] = moved
	}
}

// countAbove returns, for answer self holding bound value v, the number
// of entries (w, j) with w > v plus those with w == v and j < self —
// the certain/possible beat counts of the decide rules, exact ties
// going to the lower index, in O(log n). The caller corrects for
// self-counting where applicable.
func countAbove(e []entry, v float64, self int) int {
	n := len(e)
	ub := sort.Search(n, func(k int) bool { return e[k].v > v })
	lb := sort.Search(n, func(k int) bool { return e[k].v >= v })
	lbSelf := sort.Search(n, func(k int) bool {
		return e[k].v > v || (e[k].v == v && e[k].idx >= self)
	})
	return (n - ub) + (lbSelf - lb)
}

// addCand queues an undecided answer for re-deciding, once per pass.
func (ix *decideIndex) addCand(sc *sched, a int) {
	if sc.status[a] != undecided || ix.mark[a] == ix.stamp {
		return
	}
	ix.mark[a] = ix.stamp
	ix.cand = append(ix.cand, a)
}

// collectBand queues every undecided answer whose entry value lies in
// the closed band [lo, hi].
func (ix *decideIndex) collectBand(sc *sched, e []entry, lo, hi float64) {
	from := sort.Search(len(e), func(k int) bool { return e[k].v >= lo })
	for k := from; k < len(e) && e[k].v <= hi; k++ {
		ix.addCand(sc, e[k].idx)
	}
}

// drain turns the queued grant events into the sorted candidate set a
// full rescan could decide differently: the granted answers themselves
// plus, in top-k mode, the answers a raised Lo can newly certainly beat
// (their Hi in [oldLo, newLo]) and the answers a lowered Hi can no
// longer possibly beat (their Lo in [newHi, oldHi]). The closed bands
// over-approximate the equal-bound tie cases; re-deciding an unaffected
// answer is idempotent. Candidates come back in ascending index order —
// the order a full pass decides (and emits) them in.
func (ix *decideIndex) drain(sc *sched) []int {
	ix.stamp++
	ix.cand = ix.cand[:0]
	for _, ev := range ix.events {
		ix.addCand(sc, ev.i)
		if !ix.ordered {
			continue
		}
		if ev.newLo > ev.oldLo {
			ix.collectBand(sc, ix.his, ev.oldLo, ev.newLo)
		}
		if ev.newHi < ev.oldHi {
			ix.collectBand(sc, ix.los, ev.newHi, ev.oldHi)
		}
	}
	ix.events = ix.events[:0]
	sort.Ints(ix.cand)
	return ix.cand
}

// widthHeap orders the undecided, still-refinable answers widest
// interval first, ties to the lower index — a linear scan's pick
// order served in O(log n). Membership invariant: exactly
// the answers with status undecided whose refiners can still step.
type widthHeap struct {
	sc  *sched
	idx []int
	pos []int // answer index → heap position, -1 when absent
}

func newWidthHeap(sc *sched) *widthHeap {
	h := &widthHeap{sc: sc, pos: make([]int, len(sc.items))}
	for i := range h.pos {
		h.pos[i] = -1
	}
	for i := range sc.items {
		if sc.status[i] == undecided && !sc.refs[i].Done() {
			h.pos[i] = len(h.idx)
			h.idx = append(h.idx, i)
		}
	}
	heap.Init(h)
	return h
}

func (h *widthHeap) Len() int { return len(h.idx) }

func (h *widthHeap) Less(i, j int) bool {
	a, b := h.idx[i], h.idx[j]
	wa := h.sc.items[a].Hi - h.sc.items[a].Lo
	wb := h.sc.items[b].Hi - h.sc.items[b].Lo
	if wa != wb {
		return wa > wb
	}
	return a < b
}

func (h *widthHeap) Swap(i, j int) {
	h.idx[i], h.idx[j] = h.idx[j], h.idx[i]
	h.pos[h.idx[i]] = i
	h.pos[h.idx[j]] = j
}

func (h *widthHeap) Push(x any) {
	a := x.(int)
	h.pos[a] = len(h.idx)
	h.idx = append(h.idx, a)
}

func (h *widthHeap) Pop() any {
	n := len(h.idx)
	a := h.idx[n-1]
	h.idx = h.idx[:n-1]
	h.pos[a] = -1
	return a
}

// remove drops answer a from the heap if present. Safe on a nil heap
// (RefineAll and the pre-first-pick phase never build one).
func (h *widthHeap) remove(a int) {
	if h == nil || h.pos[a] < 0 {
		return
	}
	heap.Remove(h, h.pos[a])
}

// refile re-sifts answer a after its interval width changed, or drops
// it when its refiner can no longer step.
func (h *widthHeap) refile(a int, done bool) {
	if h == nil || h.pos[a] < 0 {
		return
	}
	if done {
		heap.Remove(h, h.pos[a])
		return
	}
	heap.Fix(h, h.pos[a])
}
