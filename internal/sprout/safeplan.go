// Package sprout implements the SPROUT exact-confidence baselines the
// paper compares against (Section VII-1): extensional safe-plan
// evaluation for hierarchical queries without self-joins [21], and the
// secondary-storage-style sorted-scan algorithms for tractable
// conjunctive queries with inequalities (IQ queries) [20].
//
// Unlike the d-tree algorithm, these baselines exploit knowledge of the
// query structure: a safe plan multiplies and independent-projects per-tuple
// probabilities without ever materializing lineage, and the IQ scans use
// the nesting structure of inequality joins. They are exact and fast but
// apply only to the tractable classes. The planner's safe and IQ routes
// (internal/plan) are their one caller: a query reaches SPROUT by
// compiling to one of those routes, never by a hand-written plan.
//
// Both safe-plan operators cost one pass over their input and allocate
// per output table, never per input row: they group through one
// open-addressing table keyed on the projected value vector itself
// (KeyIndex), whose keys live in one flat arena that the output rows
// then alias.
package sprout

import (
	"slices"

	"repro/internal/pdb"
)

// ProbTable is an extensional probabilistic table: each row carries the
// probability of the independent event it represents. Safe plans
// guarantee the independence assumptions each operator needs.
type ProbTable struct {
	Width int // columns per row
	Rows  []ProbRow
}

// ProbRow is a row and the probability of its event. Rows an operator
// returns alias that table's own value arena and are capped at their
// width, so appending to one never writes into its neighbour.
type ProbRow struct {
	Vals []pdb.Value
	P    float64
}

// tableOver wraps a flat arena of width-column rows and their
// probabilities as a ProbTable.
func tableOver(width int, vals []pdb.Value, ps []float64) *ProbTable {
	t := &ProbTable{Width: width, Rows: make([]ProbRow, len(ps))}
	for i, p := range ps {
		t.Rows[i] = ProbRow{Vals: vals[i*width : (i+1)*width : (i+1)*width], P: p}
	}
	return t
}

// KeyIndex assigns dense ids, in first-seen order, to the distinct
// projections of value vectors onto width columns. It is an
// open-addressing (linear probing, load ≤ ½) table over the keys
// themselves: a vector that lands on a known key allocates nothing, and
// no encoded key is ever built. Ids fit an int32 — a relation with 2³¹
// distinct keys does not fit in memory as a []pdb.Tuple. The safe-plan
// operators here and the lineage route's grouping sink (plan) share it.
type KeyIndex struct {
	width int
	n     int         // distinct keys so far
	keys  []pdb.Value // key id is keys[id*width : (id+1)*width]
	slots []int32     // id + 1, 0 = empty; len is a power of two
	probe []pdb.Value // scratch: the projection being looked up
}

// minSlots is a KeyIndex's initial slot count; it holds minSlots/2 keys
// before it first grows.
const minSlots = 16

// NewKeyIndex returns an empty index of width-column keys.
func NewKeyIndex(width int) KeyIndex {
	return KeyIndex{
		width: width,
		keys:  make([]pdb.Value, 0, minSlots/2*width),
		slots: make([]int32, minSlots),
		probe: make([]pdb.Value, 0, width),
	}
}

func hashKey(key []pdb.Value) uint64 {
	h := uint64(len(key))
	for _, v := range key {
		h = (h ^ uint64(v)) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return h
}

// Key returns key id, aliasing the index's arena and capped at its
// width.
func (k *KeyIndex) Key(id int) []pdb.Value {
	return k.keys[id*k.width : (id+1)*k.width : (id+1)*k.width]
}

// Lookup returns the id of vals projected onto cols (len(cols) must be
// the index's width). An unseen key gets the next id when add is set
// and -1 otherwise.
func (k *KeyIndex) Lookup(vals []pdb.Value, cols []int, add bool) int {
	key := k.probe[:0]
	for _, c := range cols {
		key = append(key, vals[c])
	}
	if add && 2*(k.n+1) > len(k.slots) {
		k.grow()
	}
	mask := uint64(len(k.slots) - 1)
	for i := hashKey(key) & mask; ; i = (i + 1) & mask {
		slot := k.slots[i]
		if slot == 0 {
			if !add {
				return -1
			}
			k.n++
			k.slots[i] = int32(k.n)
			k.keys = append(k.keys, key...)
			return k.n - 1
		}
		id := int(slot - 1)
		if slices.Equal(k.keys[id*k.width:(id+1)*k.width], key) {
			return id
		}
	}
}

// grow doubles the slot table and re-seats every key.
func (k *KeyIndex) grow() {
	k.slots = make([]int32, 2*len(k.slots))
	mask := uint64(len(k.slots) - 1)
	for id := 0; id < k.n; id++ {
		i := hashKey(k.keys[id*k.width:(id+1)*k.width]) & mask
		for k.slots[i] != 0 {
			i = (i + 1) & mask
		}
		k.slots[i] = int32(id + 1)
	}
}

// Grouper is the independent-project kernel: it folds a stream of
// (row, probability) pairs into one group per distinct projection of
// the row, combining each group's events with the independent-or rule
// 1 − Π(1 − p). Safe when rows collapsing into one group are
// independent events — the condition the hierarchical property
// guarantees at every projection of a safe plan. A zero-width
// projection is the Boolean one: a single group, or none when no row
// was added.
type Grouper struct {
	idx KeyIndex
	q   []float64 // Π(1 − p) per group
}

// NewGrouper returns a Grouper projecting onto width columns.
func NewGrouper(width int) *Grouper {
	return &Grouper{idx: NewKeyIndex(width), q: make([]float64, 0, minSlots/2)}
}

// Add folds in a row with event probability p, grouped by its values at
// cols (len(cols) must be the Grouper's width).
func (g *Grouper) Add(vals []pdb.Value, cols []int, p float64) {
	id := g.idx.Lookup(vals, cols, true)
	if id == len(g.q) {
		g.q = append(g.q, 1)
	}
	g.q[id] *= 1 - p
}

// Table returns the groups as a table, in pdb.CompareValueKeys order.
// That order fixes the multiplication order of every operator above,
// and with it the last bit of every answer. The Grouper must not be
// used afterwards: the rows alias its keys.
func (g *Grouper) Table() *ProbTable {
	for i, q := range g.q {
		g.q[i] = 1 - q
	}
	t := tableOver(g.idx.width, g.idx.keys, g.q)
	slices.SortFunc(t.Rows, func(a, b ProbRow) int { return pdb.CompareValueKeys(a.Vals, b.Vals) })
	return t
}

// IndepProject projects onto the given columns, combining the rows of
// each group with the independent-or rule (see Grouper).
func (t *ProbTable) IndepProject(cols []int) *ProbTable {
	g := NewGrouper(len(cols))
	for _, r := range t.Rows {
		g.Add(r.Vals, cols, r.P)
	}
	return g.Table()
}

// IndepJoinOn is the independent join on l[lcols[i]] = r[rcols[i]] for
// every i — the Cartesian product when there are none — emitting only
// the columns keep, which are positions in the concatenation of l's and
// r's schemas. Output rows are in l's row order and, for one l row, in
// r's row order.
func IndepJoinOn(l, r *ProbTable, lcols, rcols, keep []int) *ProbTable {
	lw := l.Width
	// Index r: the rows of one key, chained in row order.
	idx := NewKeyIndex(len(rcols))
	var first, last []int32 // per key
	next := make([]int32, len(r.Rows))
	for i, row := range r.Rows {
		next[i] = -1
		if id := idx.Lookup(row.Vals, rcols, true); id == len(first) {
			first = append(first, int32(i))
			last = append(last, int32(i))
		} else {
			next[last[id]] = int32(i)
			last[id] = int32(i)
		}
	}
	var vals []pdb.Value
	var ps []float64
	for _, lrow := range l.Rows {
		id := idx.Lookup(lrow.Vals, lcols, false)
		if id < 0 {
			continue
		}
		for ri := first[id]; ri >= 0; ri = next[ri] {
			rrow := r.Rows[ri]
			for _, c := range keep {
				if c < lw {
					vals = append(vals, lrow.Vals[c])
				} else {
					vals = append(vals, rrow.Vals[c-lw])
				}
			}
			ps = append(ps, lrow.P*rrow.P)
		}
	}
	return tableOver(len(keep), vals, ps)
}
