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

// cursor is a pull-based tuple stream.
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
// pipeline its own (the façade DB keeps a pool). The join build loops
// and the sink poll ctx every cancelStride tuples; a dead context is
// the only error.
func lineageWithStats(ctx context.Context, root Node, in *formula.Interner) ([]pdb.Answer, lineageStats, error) {
	if root == nil {
		return nil, lineageStats{}, nil
	}
	g := groupOf(root)
	if in == nil {
		in = formula.NewInterner()
	}
	ans, tuples, err := groupSink(ctx, newCursor(ctx, g.Input, in), g.Cols)
	if err != nil {
		return nil, lineageStats{}, err
	}
	st := lineageStats{answers: int64(len(ans)), tuples: tuples}
	for _, a := range ans {
		st.clauses += int64(len(a.Lin))
	}
	return ans, st, nil
}

// newCursor builds the cursor tree for n. A join drains its build side
// here, polling ctx; once ctx is dead it stops short, and the sink —
// which polls the same ctx — reports the cancellation.
func newCursor(ctx context.Context, n Node, in *formula.Interner) cursor {
	switch t := n.(type) {
	case *Scan:
		return &scanCursor{rel: t.Rel}
	case *Select:
		return &selectCursor{in: newCursor(ctx, t.Input, in), pred: t.Pred}
	case *EquiJoin:
		return newHashJoinCursor(ctx, t, in)
	case *ThetaJoin:
		return newThetaJoinCursor(ctx, t, in)
	case *Project:
		return &projectCursor{in: newCursor(ctx, t.Input, in), cols: t.Cols}
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

type projectCursor struct {
	in   cursor
	cols []int
}

func (c *projectCursor) next() (pdb.Tuple, bool) {
	t, ok := c.in.next()
	if !ok {
		return pdb.Tuple{}, false
	}
	vals := make([]pdb.Value, len(c.cols))
	for i, col := range c.cols {
		vals[i] = t.Vals[col]
	}
	return pdb.Tuple{Vals: vals, Lin: t.Lin}, true
}

// hashJoinCursor streams its left input against a hash index built by
// draining the right input once (the only buffering in the pipeline).
type hashJoinCursor struct {
	left    cursor
	index   map[pdb.Value][]pdb.Tuple
	lcol    int
	on      func(left, right []pdb.Value) bool
	in      *formula.Interner
	cur     pdb.Tuple // current left tuple
	matches []pdb.Tuple
	mi      int
}

func newHashJoinCursor(ctx context.Context, t *EquiJoin, in *formula.Interner) cursor {
	right := newCursor(ctx, t.Right, in)
	index := make(map[pdb.Value][]pdb.Tuple)
	for n := 0; ; n++ {
		if n%cancelStride == 0 && ctx.Err() != nil {
			break
		}
		rt, ok := right.next()
		if !ok {
			break
		}
		k := rt.Vals[t.RightCol]
		index[k] = append(index[k], rt)
	}
	return &hashJoinCursor{
		left: newCursor(ctx, t.Left, in), index: index,
		lcol: t.LeftCol, on: t.On, in: in,
	}
}

func (c *hashJoinCursor) next() (pdb.Tuple, bool) {
	for {
		for c.mi < len(c.matches) {
			rt := c.matches[c.mi]
			c.mi++
			if c.on != nil && !c.on(c.cur.Vals, rt.Vals) {
				continue
			}
			if out, ok := joinTuple(c.cur, rt, c.in); ok {
				return out, true
			}
		}
		lt, ok := c.left.next()
		if !ok {
			return pdb.Tuple{}, false
		}
		c.cur = lt
		c.matches = c.index[lt.Vals[c.lcol]]
		c.mi = 0
	}
}

// thetaJoinCursor streams its left input against the buffered right.
type thetaJoinCursor struct {
	left  cursor
	right []pdb.Tuple
	pred  func(left, right []pdb.Value) bool
	in    *formula.Interner
	cur   pdb.Tuple
	ri    int
	open  bool
}

func newThetaJoinCursor(ctx context.Context, t *ThetaJoin, in *formula.Interner) cursor {
	rc := newCursor(ctx, t.Right, in)
	var right []pdb.Tuple
	for n := 0; ; n++ {
		if n%cancelStride == 0 && ctx.Err() != nil {
			break
		}
		rt, ok := rc.next()
		if !ok {
			break
		}
		right = append(right, rt)
	}
	return &thetaJoinCursor{left: newCursor(ctx, t.Left, in), right: right, pred: thetaPred(t), in: in}
}

// thetaPred composes a ThetaJoin's condition: the structured Less (and
// any residual predicate), or the opaque Pred alone.
func thetaPred(t *ThetaJoin) func(left, right []pdb.Value) bool {
	pred := t.Pred
	if t.Less != nil {
		less := *t.Less
		extra := pred
		pred = func(lv, rv []pdb.Value) bool {
			if lv[less.LeftCol] >= rv[less.RightCol] {
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

func (c *thetaJoinCursor) next() (pdb.Tuple, bool) {
	for {
		if c.open {
			for c.ri < len(c.right) {
				rt := c.right[c.ri]
				c.ri++
				if !c.pred(c.cur.Vals, rt.Vals) {
					continue
				}
				if out, ok := joinTuple(c.cur, rt, c.in); ok {
					return out, true
				}
			}
			c.open = false
		}
		lt, ok := c.left.next()
		if !ok {
			return pdb.Tuple{}, false
		}
		c.cur = lt
		c.ri = 0
		c.open = true
	}
}

// joinTuple concatenates values and merges lineage through the
// interner; ok = false when the lineages are inconsistent (mutually
// exclusive BID alternatives never co-exist).
func joinTuple(lt, rt pdb.Tuple, in *formula.Interner) (pdb.Tuple, bool) {
	merged, ok := in.MergeInterned(lt.Lin, rt.Lin)
	if !ok {
		return pdb.Tuple{}, false
	}
	vals := make([]pdb.Value, 0, len(lt.Vals)+len(rt.Vals))
	vals = append(vals, lt.Vals...)
	vals = append(vals, rt.Vals...)
	return pdb.Tuple{Vals: vals, Lin: merged}, true
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

// groupSink drains the stream grouping by the projected values,
// mirroring pdb.GroupProject (including its output order, by
// pdb.CompareValueKeys); no columns is the Boolean query "some tuple
// exists", whose one answer has no values, and no tuples means no
// answer (certainly false). The second result counts the tuples
// drained. The answers' DNFs share one array sized by that count, each
// capped at its group's share.
func groupSink(ctx context.Context, cur cursor, cols []int) ([]pdb.Answer, int64, error) {
	sc := sinkPool.Get().(*sinkScratch)
	defer sinkPool.Put(sc)
	sc.clauses, sc.groups, sc.sizes = sc.clauses[:0], sc.groups[:0], sc.sizes[:0]
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
	// The drain, or a join's build loop before it, may have stopped short.
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
