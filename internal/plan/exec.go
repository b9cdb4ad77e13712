package plan

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/formula"
	"repro/internal/pdb"
	"repro/internal/sprout"
)

// This file is the pipelined physical runtime of the lineage route:
// operators are pull-based cursors, tuples stream from the scans into
// the final grouping sink, and only join build sides are buffered.
// Clause merges are interned through one formula.Interner per pipeline,
// so lineage clauses reaching the sink share canonical backing arrays.
// pdb/algebra.go's eager operators compute the same answers; the plan
// tests drive them as the reference (oracle_test.go). The runtime only
// sees trees Compile's analysis walk accepted: every entry point
// returns the plan's Err first, and Lineage(root) analyzes its root.
//
// Tuple lifetime. A tuple's Vals are valid until the cursor that
// returned it is next asked for a tuple: a join, or a projection that
// must lay out its columns, writes every output into one arena it owns.
// Every consumer keeps to that. A join holds its left tuple only until
// it advances its left input. A join's build loop copies the rows it
// buffers, unless they come from a leaf chain — a Scan under Selects
// and pass-through projections — whose Vals alias the relation. The
// sink copies group keys into its KeyIndex. Lineage clauses are
// interned or the relation's own, and outlive the pipeline.
//
// Column pruning. While the cursors are built, each operator learns
// which of its output columns its ancestors read (join keys, Less
// columns, Project and GroupLineage columns) and emits only those; the
// parents' column indices are remapped to match. An opaque predicate (a
// Select, EquiJoin.On, ThetaJoin.Pred) may read any column, so the
// input below it is emitted full width, in schema order. A Select over
// a leaf chain reads the relation's own Vals, so that costs no copy. A
// Project under a pruning parent is no cursor at all: the parent reads
// through it into its input's output. The safe route resolves its
// columns the same way (safe.go: positions, joinStep).

// cursor is a pull-based tuple stream. A returned tuple's Vals are
// valid until the next call to next.
type cursor interface {
	next() (pdb.Tuple, bool)
}

// Lineage evaluates root with the pipelined runtime and returns its
// answers with grouped lineage DNFs — the relational encoding of DNFs
// the confidence algorithms consume. A root that is not a GroupLineage
// is treated as a Boolean query over its output. A nil root has no
// answers, and neither has a malformed one (Compile(root).Err() says
// why). The answer values and order are those of pdb's eager
// operators (pdb.GroupProject).
func Lineage(root Node) []pdb.Answer {
	if root == nil || analyze(groupOf(root)).invalid != "" {
		return nil
	}
	ans, _, _ := lineageWithStats(context.Background(), root, nil) // only a dead context fails it
	return ans
}

// groupOf returns root's GroupLineage; any other root is the Boolean
// query over its output.
func groupOf(root Node) *GroupLineage {
	if g, ok := root.(*GroupLineage); ok {
		return g
	}
	return &GroupLineage{Input: root}
}

// lineageStats reports one lineage materialization's output volumes:
// distinct answer groups, clauses across the normalized answer DNFs,
// and tuples drained from the pipeline into the sink.
type lineageStats struct {
	answers int64
	clauses int64
	tuples  int64
}

// lineageWithStats is Lineage running the pipeline through a
// caller-owned clause interner (nil allocates a fresh one) and
// reporting the pipeline's volumes for the observability layer.
// Reusing one interner across the queries of a database keeps canonical
// clause instances — and the allocation they cost — shared; an Interner
// is not safe for concurrent use, so callers must hand each concurrent
// pipeline its own (the façade DB keeps a pool). The join build loops,
// the join probes and the sink poll ctx every cancelStride tuples; a
// dead context is the only error.
func lineageWithStats(ctx context.Context, root Node, in *formula.Interner) ([]pdb.Answer, lineageStats, error) {
	if root == nil {
		return nil, lineageStats{}, nil
	}
	g := groupOf(root)
	if in == nil {
		in = formula.NewInterner()
	}
	b := builder{ctx: ctx, in: in}
	defer b.release()
	out := b.build(g.Input, reads(Width(g.Input), g.Cols))
	ans, tuples, err := groupSink(ctx, out.cur, out.remap(g.Cols))
	if err != nil {
		return nil, lineageStats{}, err
	}
	st := lineageStats{answers: int64(len(ans)), tuples: tuples}
	for _, a := range ans {
		st.clauses += int64(len(a.Lin))
	}
	return ans, st, nil
}

// builder builds one pipeline's cursors. It hands every join the
// context its build loop and probe poll, the pipeline's interner and a
// pooled build side; release returns those once the sink has drained.
type builder struct {
	ctx  context.Context
	in   *formula.Interner
	held []*buildSide
}

// stream is a built cursor and how its output lays out the node's
// schema.
type stream struct {
	cur cursor
	// at[p] is the position of schema column p in the emitted Vals, -1
	// when no ancestor reads it; nil is the identity (full width).
	at []int
	// width is the number of values each emitted tuple carries.
	width int
	// stable: the emitted Vals alias the relation's tuples, so they
	// outlive the next call to next and a build loop keeps them as they
	// are.
	stable bool
}

// pos is the position of schema column p in s's emitted Vals.
func (s stream) pos(p int) int {
	if s.at == nil {
		return p
	}
	return s.at[p]
}

// remap returns the emitted positions of the schema columns cols.
func (s stream) remap(cols []int) []int {
	if s.at == nil {
		return cols
	}
	out := make([]int, len(cols))
	for i, c := range cols {
		out[i] = s.at[c]
	}
	return out
}

// reads marks the columns cols of a width-column schema as read.
func reads(width int, cols []int) []bool {
	need := make([]bool, width)
	for _, c := range cols {
		need[c] = true
	}
	return need
}

// build builds the cursor for n, emitting at least the schema columns
// need marks; a nil need asks for every column in schema order, as an
// opaque reader does. A join drains its build side here, polling b.ctx;
// once it is dead the join stops short, and the sink — which polls the
// same context — reports the cancellation.
func (b *builder) build(n Node, need []bool) stream {
	switch t := n.(type) {
	case *Scan:
		return stream{cur: &scanCursor{rel: t.Rel}, width: len(t.Rel.Cols), stable: true}
	case *Select:
		in := b.build(t.Input, nil) // the predicate is opaque
		return stream{cur: &selectCursor{in: in.cur, pred: t.Pred}, width: in.width, stable: in.stable}
	case *Project:
		return b.project(t, need)
	case *EquiJoin:
		return b.hashJoin(t, need)
	case *ThetaJoin:
		return b.thetaJoin(t, need)
	case *GroupLineage:
		// invariant: the runtime strips the root GroupLineage, and
		// analyze rejects one below the root at compile.
		panic("plan: GroupLineage below the plan root")
	case *TopK, *Threshold:
		// invariant: Compile strips the ranking root, and analyze rejects
		// one below it.
		panic("plan: TopK/Threshold must be the plan root")
	}
	// invariant: analyze rejects nil inputs and foreign node types at
	// compile, before any cursor is built.
	panic(fmt.Sprintf("plan: unknown node %T", n))
}

// project passes its input through when the parent prunes — the
// parent's columns are remapped onto the input's output — and writes
// the projected columns into an arena when an opaque parent needs them
// in schema order.
func (b *builder) project(t *Project, need []bool) stream {
	inNeed := make([]bool, Width(t.Input))
	for i, c := range t.Cols {
		if need == nil || need[i] {
			inNeed[c] = true
		}
	}
	in := b.build(t.Input, inNeed)
	if need == nil {
		pick := in.remap(t.Cols)
		return stream{cur: &projectCursor{in: in.cur, pick: pick, vals: make([]pdb.Value, len(pick))}, width: len(pick)}
	}
	at := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		at[i] = -1
		if need[i] {
			at[i] = in.pos(c)
		}
	}
	return stream{cur: in.cur, at: at, width: in.width, stable: in.stable}
}

// sideNeeds splits a join's need between its sides and adds the join's
// own key columns; an opaque join predicate, or an opaque parent, needs
// both sides full width.
func sideNeeds(need []bool, lw, rw, lkey, rkey int, opaque bool) (lneed, rneed []bool) {
	if need == nil || opaque {
		return nil, nil
	}
	lneed, rneed = make([]bool, lw), make([]bool, rw)
	copy(lneed, need[:lw])
	copy(rneed, need[lw:])
	lneed[lkey], rneed[rkey] = true, true
	return lneed, rneed
}

// hashJoin drains the right input into a build side chained by key,
// then builds the left input it probes with.
func (b *builder) hashJoin(t *EquiJoin, need []bool) stream {
	lw, rw := Width(t.Left), Width(t.Right)
	lneed, rneed := sideNeeds(need, lw, rw, t.LeftCol, t.RightCol, t.On != nil)
	r := b.build(t.Right, rneed)
	c := &hashJoinCursor{build: b.buildSide(), idx: sprout.NewKeyIndex(1), on: t.On, ri: -1}
	rkey := [1]int{r.pos(t.RightCol)}
	c.build.fill(b.ctx, r, &c.idx, rkey[:])
	l := b.build(t.Left, lneed)
	c.lkey[0] = l.pos(t.LeftCol)
	var at []int
	c.probe, at = b.probe(need, l, r, lw, rw)
	return stream{cur: c, at: at, width: len(c.vals)}
}

// thetaJoin drains the right input into a build side, then builds the
// left input whose every tuple meets every buffered row.
func (b *builder) thetaJoin(t *ThetaJoin, need []bool) stream {
	lw, rw := Width(t.Left), Width(t.Right)
	var lkey, rkey int
	if t.Less != nil {
		lkey, rkey = t.Less.LeftCol, t.Less.RightCol
	}
	// invariant: analyze rejects a ThetaJoin without Less or Pred, so
	// one without Less has an opaque Pred.
	lneed, rneed := sideNeeds(need, lw, rw, lkey, rkey, t.Pred != nil || t.Less == nil)
	r := b.build(t.Right, rneed)
	bs := b.buildSide()
	bs.fill(b.ctx, r, nil, nil)
	l := b.build(t.Left, lneed)
	c := &thetaJoinCursor{rows: bs.rows, ri: len(bs.rows), pred: thetaPred(t, l.pos(lkey), r.pos(rkey))}
	var at []int
	c.probe, at = b.probe(need, l, r, lw, rw)
	return stream{cur: c, at: at, width: len(c.vals)}
}

// thetaPred composes a ThetaJoin's condition: the structured Less over
// the emitted positions lcol, rcol of its columns (and any residual
// predicate), or the opaque Pred alone.
func thetaPred(t *ThetaJoin, lcol, rcol int) func(left, right []pdb.Value) bool {
	pred := t.Pred
	if t.Less != nil {
		extra := pred
		pred = func(lv, rv []pdb.Value) bool {
			if lv[lcol] >= rv[rcol] {
				return false
			}
			return extra == nil || extra(lv, rv)
		}
	}
	if pred == nil {
		// invariant: analyze rejects a ThetaJoin without Less or Pred at
		// compile.
		panic("plan: ThetaJoin without Less or Pred")
	}
	return pred
}

// probe sets up a join's probe over its built sides l and r. The output
// is the schema columns need marks (all lw+rw when need is nil), in
// schema order, picked from the sides' emitted values; at maps the
// join's schema onto it for the join's parent.
func (b *builder) probe(need []bool, l, r stream, lw, rw int) (j probe, at []int) {
	if need != nil {
		at = make([]int, lw+rw)
	}
	pick := make([]int, 0, lw+rw)
	for p := 0; p < lw+rw; p++ {
		if need != nil {
			if !need[p] {
				at[p] = -1
				continue
			}
			at[p] = len(pick)
		}
		if p < lw {
			pick = append(pick, l.pos(p))
			j.nl++
		} else {
			pick = append(pick, r.pos(p-lw))
		}
	}
	j.left, j.ctx, j.in = l.cur, b.ctx, b.in
	j.pick, j.vals = pick, make([]pdb.Value, len(pick))
	return j, at
}

type scanCursor struct {
	rel *pdb.Relation
	i   int
}

func (c *scanCursor) next() (pdb.Tuple, bool) {
	if c.i >= len(c.rel.Tups) {
		return pdb.Tuple{}, false
	}
	t := c.rel.Tups[c.i]
	c.i++
	return t, true
}

type selectCursor struct {
	in   cursor
	pred func([]pdb.Value) bool
}

func (c *selectCursor) next() (pdb.Tuple, bool) {
	for {
		t, ok := c.in.next()
		if !ok {
			return pdb.Tuple{}, false
		}
		if c.pred(t.Vals) {
			return t, true
		}
	}
}

// projectCursor lays a projection out in schema order, for an opaque
// reader above it.
type projectCursor struct {
	in   cursor
	pick []int       // input positions of the projected columns
	vals []pdb.Value // the arena
}

func (c *projectCursor) next() (pdb.Tuple, bool) {
	t, ok := c.in.next()
	if !ok {
		return pdb.Tuple{}, false
	}
	for i, p := range c.pick {
		c.vals[i] = t.Vals[p]
	}
	return pdb.Tuple{Vals: c.vals, Lin: t.Lin}, true
}

// probe is the probe half both joins share: the left input, polled
// for cancellation every cancelStride tuples so that a probe matching
// nothing still stops; the interner the joins merge through; and the
// arena every output is written to, the left tuple's emitted columns
// first.
type probe struct {
	left   cursor
	ctx    context.Context
	pulled int
	cur    pdb.Tuple // the current left tuple
	in     *formula.Interner
	pick   []int       // emitted columns: positions in the left tuple's Vals, then in the right's
	nl     int         // how many of pick are left positions
	vals   []pdb.Value // the arena
}

// advance makes the next left tuple current and writes its emitted
// columns; false at the end of the left input or once ctx is dead.
func (j *probe) advance() bool {
	if j.pulled%cancelStride == 0 && j.ctx.Err() != nil {
		return false
	}
	j.pulled++
	t, ok := j.left.next()
	if !ok {
		return false
	}
	j.cur = t
	for i, p := range j.pick[:j.nl] {
		j.vals[i] = t.Vals[p]
	}
	return true
}

// emit joins the current left tuple with rt: the merged lineage and the
// arena, completed with rt's emitted columns; ok = false when the
// lineages are inconsistent (mutually exclusive BID alternatives never
// co-exist).
func (j *probe) emit(rt *pdb.Tuple) (pdb.Tuple, bool) {
	merged, ok := j.in.MergeInterned(j.cur.Lin, rt.Lin)
	if !ok {
		return pdb.Tuple{}, false
	}
	right := j.vals[j.nl:]
	for i, p := range j.pick[j.nl:] {
		right[i] = rt.Vals[p]
	}
	return pdb.Tuple{Vals: j.vals, Lin: merged}, true
}

// buildSide is a join's buffered right input: its rows in arrival
// order and, for a hash join, the rows of each key chained in that
// order — first per key id, next per row, -1 ending a chain (last is
// the fill's scratch). Rows of a stable input alias its tuples; an
// unstable input's values are copied into vals. Build sides are pooled,
// so a warm join allocates none of these arrays.
type buildSide struct {
	rows              []pdb.Tuple
	vals              []pdb.Value
	first, last, next []int32
}

var buildPool = sync.Pool{New: func() any { return new(buildSide) }}

// buildSide takes a build side from the pool for the pipeline.
func (b *builder) buildSide() *buildSide {
	bs := buildPool.Get().(*buildSide)
	b.held = append(b.held, bs)
	return bs
}

// release returns the pipeline's build sides to the pool, cleared of
// every tuple, so that the pool pins neither relations nor clauses.
func (b *builder) release() {
	for _, bs := range b.held {
		clear(bs.rows)
		bs.rows, bs.vals = bs.rows[:0], bs.vals[:0]
		bs.first, bs.last, bs.next = bs.first[:0], bs.last[:0], bs.next[:0]
		buildPool.Put(bs)
	}
}

// fill drains s, polling ctx every cancelStride rows, and chains each
// row to its key's id in idx — the key is the row's values at cols —
// when idx is set.
func (bs *buildSide) fill(ctx context.Context, s stream, idx *sprout.KeyIndex, cols []int) {
	for n := 0; ; n++ {
		if n%cancelStride == 0 && ctx.Err() != nil {
			break
		}
		t, ok := s.cur.next()
		if !ok {
			break
		}
		if idx != nil {
			if id := idx.Lookup(t.Vals, cols, true); id == len(bs.first) {
				bs.first, bs.last = append(bs.first, int32(n)), append(bs.last, int32(n))
			} else {
				bs.next[bs.last[id]], bs.last[id] = int32(n), int32(n)
			}
			bs.next = append(bs.next, -1)
		}
		if !s.stable {
			bs.vals = append(bs.vals, t.Vals...)
			t.Vals = nil
		}
		bs.rows = append(bs.rows, t)
	}
	if !s.stable {
		w := s.width
		for i := range bs.rows {
			bs.rows[i].Vals = bs.vals[i*w : (i+1)*w : (i+1)*w]
		}
	}
}

// hashJoinCursor streams its left input against its build side, found
// through a KeyIndex over the right key.
type hashJoinCursor struct {
	probe
	build *buildSide
	idx   sprout.KeyIndex
	lkey  [1]int // the left key's emitted position
	on    func(left, right []pdb.Value) bool
	ri    int32 // the current left tuple's next candidate row, -1 for none
}

func (c *hashJoinCursor) next() (pdb.Tuple, bool) {
	for {
		for c.ri >= 0 {
			rt := &c.build.rows[c.ri]
			c.ri = c.build.next[c.ri]
			if c.on != nil && !c.on(c.cur.Vals, rt.Vals) {
				continue
			}
			if out, ok := c.emit(rt); ok {
				return out, true
			}
		}
		if !c.advance() {
			return pdb.Tuple{}, false
		}
		if id := c.idx.Lookup(c.cur.Vals, c.lkey[:], false); id >= 0 {
			c.ri = c.build.first[id]
		}
	}
}

// thetaJoinCursor streams its left input against every buffered right
// row.
type thetaJoinCursor struct {
	probe
	rows []pdb.Tuple
	pred func(left, right []pdb.Value) bool
	ri   int // the current left tuple's next candidate row
}

func (c *thetaJoinCursor) next() (pdb.Tuple, bool) {
	for {
		for c.ri < len(c.rows) {
			rt := &c.rows[c.ri]
			c.ri++
			if !c.pred(c.cur.Vals, rt.Vals) {
				continue
			}
			if out, ok := c.emit(rt); ok {
				return out, true
			}
		}
		if !c.advance() {
			return pdb.Tuple{}, false
		}
		c.ri = 0
	}
}

// sinkScratch stages what groupSink drains: every tuple's lineage clause
// and group id, in arrival order, and the group sizes. It is pooled, so
// a warm sink allocates per group, never per tuple.
type sinkScratch struct {
	clauses []formula.Clause
	groups  []int32 // clauses[i] belongs to group groups[i]
	sizes   []int   // tuples per group
}

var sinkPool = sync.Pool{New: func() any { return new(sinkScratch) }}

// release returns the scratch to the pool without the drained clauses,
// which would otherwise keep finished queries' interner arenas alive.
func (sc *sinkScratch) release() {
	clear(sc.clauses)
	sc.clauses, sc.groups, sc.sizes = sc.clauses[:0], sc.groups[:0], sc.sizes[:0]
	sinkPool.Put(sc)
}

// groupSink drains the stream grouping by the projected values,
// mirroring pdb.GroupProject (including its output order, by
// pdb.CompareValueKeys); no columns is the Boolean query "some tuple
// exists", whose one answer has no values, and no tuples means no
// answer (certainly false). The second result counts the tuples
// drained. The answers' DNFs share one array sized by that count, each
// capped at its group's share.
func groupSink(ctx context.Context, cur cursor, cols []int) ([]pdb.Answer, int64, error) {
	sc := sinkPool.Get().(*sinkScratch)
	defer sc.release()
	idx := sprout.NewKeyIndex(len(cols))
	for {
		if len(sc.clauses)%cancelStride == 0 && ctx.Err() != nil {
			break
		}
		t, ok := cur.next()
		if !ok {
			break
		}
		g := idx.Lookup(t.Vals, cols, true)
		if g == len(sc.sizes) {
			sc.sizes = append(sc.sizes, 0)
		}
		sc.sizes[g]++
		sc.clauses, sc.groups = append(sc.clauses, t.Lin), append(sc.groups, int32(g))
	}
	// The drain, or a join's build loop or probe before it, may have
	// stopped short.
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	out := make([]pdb.Answer, len(sc.sizes))
	lins := make([]formula.Clause, len(sc.clauses))
	for g, n := range sc.sizes {
		if len(cols) > 0 {
			out[g].Vals = idx.Key(g)
		}
		out[g].Lin, lins = lins[:0:n], lins[n:]
	}
	for i, c := range sc.clauses {
		a := &out[sc.groups[i]]
		a.Lin = append(a.Lin, c)
	}
	for g := range out {
		out[g].Lin = out[g].Lin.Dedup()
	}
	slices.SortFunc(out, func(a, b pdb.Answer) int { return pdb.CompareValueKeys(a.Vals, b.Vals) })
	return out, int64(len(sc.clauses)), nil
}
