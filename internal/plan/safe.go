package plan

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/formula"
	"repro/internal/pdb"
	"repro/internal/sprout"
)

// Safe-plan compilation (the SPROUT extensional route, Section VII-1).
// The query graph is viewed as a conjunctive query: each leaf is a
// subgoal, equality-connected columns form query variables, and the
// GroupLineage columns are the head variables. For hierarchical queries
// without self-joins the classic recursion produces a safe plan over
// extensional operators (the independent project and independent join
// of package sprout) that computes exact confidences without ever
// materializing lineage:
//
//   - one subgoal: independent-project the (filtered, tuple-independent)
//     relation onto its head variables;
//   - several connected components w.r.t. non-head variables: compile
//     each and join the results on their shared head variables
//     (independent join — distinct relations, independent events);
//   - one component: a root variable occurring in every subgoal is moved
//     into the head and projected away on top of the recursion. No such
//     variable ⇒ the query is not hierarchical ⇒ not safe.
//
// Every column position is resolved at compile time, so evaluation is
// one pass per operator: a leaf streams its qualifying tuples straight
// into the grouping kernel (no per-tuple table in between), a join emits
// only the columns its parent reads, already in the parent's order, and
// allocations follow the number of groups, never the number of tuples.

// safeEval evaluates one compiled subplan. The columns of the returned
// table are the (sorted) head classes the subplan was compiled for.
type safeEval func(ctx context.Context, s *formula.Space) (*sprout.ProbTable, error)

// safePlan is a compiled safe plan.
type safePlan struct {
	// eval produces the extensional answer table; its columns are the
	// sorted head variable classes of the root.
	eval safeEval
	// headPos is the root-table column behind each requested output
	// column.
	headPos []int
	// desc is a one-line plan description for traces.
	desc string
}

// compileSafe attempts the safe route. On failure it returns the reason
// the query is not (recognizably) safe. Compilation is pure plan-shape
// work; leaf filtering happens inside the compiled evaluator, at
// evaluation time.
func compileSafe(a *analysis) (*safePlan, string) {
	if a.taint != "" {
		return nil, a.taint
	}
	if len(a.ineqs) > 0 {
		return nil, "inequality join (IQ candidate)"
	}
	if !selfJoinFree(a.leaves) {
		return nil, "self-join"
	}

	c := &safeCompiler{leaves: a.leaves}
	c.buildClasses(a)

	allLeaves := make([]int, len(a.leaves))
	for i := range allLeaves {
		allLeaves[i] = i
	}
	head := make([]int, 0, len(a.head))
	for _, o := range a.head {
		head = append(head, c.classOf[o])
	}
	rootHead := sortedUnique(head)
	eval, reason := c.compile(allLeaves, rootHead)
	if eval == nil {
		return nil, reason
	}
	names := make([]string, len(a.leaves))
	for i := range a.leaves {
		names[i] = a.leaves[i].rel.Name
	}
	return &safePlan{
		eval:    eval,
		headPos: positions(rootHead, head),
		desc:    fmt.Sprintf("safe plan over %s", strings.Join(names, ", ")),
	}, ""
}

// safeCompiler carries the variable-class structure during compilation.
type safeCompiler struct {
	leaves []leafInfo
	// classOf maps every origin participating in a join or the head to
	// its variable class (dense ids).
	classOf map[origin]int
	// colsOf[class][leaf] lists the leaf's columns of that class.
	colsOf map[int]map[int][]int
	// leafClasses[leaf] is the sorted classes present in the leaf.
	leafClasses [][]int
}

func (c *safeCompiler) buildClasses(a *analysis) {
	// Union-find over origins linked by equality edges; head origins get
	// classes too.
	parent := make(map[origin]origin)
	var find func(o origin) origin
	find = func(o origin) origin {
		p, ok := parent[o]
		if !ok {
			parent[o] = o
			return o
		}
		if p == o {
			return o
		}
		r := find(p)
		parent[o] = r
		return r
	}
	union := func(x, y origin) {
		rx, ry := find(x), find(y)
		if rx != ry {
			parent[rx] = ry
		}
	}
	for _, e := range a.eqs {
		union(e.a, e.b)
	}
	for _, o := range a.head {
		find(o)
	}
	// Dense class ids in deterministic (origin-sorted) order.
	members := make([]origin, 0, len(parent))
	for o := range parent {
		members = append(members, o)
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].leaf != members[j].leaf {
			return members[i].leaf < members[j].leaf
		}
		return members[i].col < members[j].col
	})
	c.classOf = make(map[origin]int)
	c.colsOf = make(map[int]map[int][]int)
	rootID := make(map[origin]int)
	for _, o := range members {
		r := find(o)
		id, ok := rootID[r]
		if !ok {
			id = len(rootID)
			rootID[r] = id
			c.colsOf[id] = make(map[int][]int)
		}
		c.classOf[o] = id
		c.colsOf[id][o.leaf] = append(c.colsOf[id][o.leaf], o.col)
	}
	c.leafClasses = make([][]int, len(a.leaves))
	for class, byLeaf := range c.colsOf {
		for leaf := range byLeaf {
			c.leafClasses[leaf] = append(c.leafClasses[leaf], class)
		}
	}
	for i := range c.leafClasses {
		sort.Ints(c.leafClasses[i])
	}
}

// compile builds the evaluator for the subgoals in sub with the given
// (sorted) head classes, or returns the reason it cannot.
func (c *safeCompiler) compile(sub []int, head []int) (safeEval, string) {
	if len(sub) == 1 {
		return c.leafEval(sub[0], head), ""
	}
	comps := c.components(sub, head)
	if len(comps) == 1 {
		root, ok := c.rootVar(sub, head)
		if !ok {
			return nil, fmt.Sprintf("not hierarchical: no root variable over %d connected subgoals", len(sub))
		}
		innerHead := sortedUnique(append(append([]int{}, head...), root))
		inner, reason := c.compile(sub, innerHead)
		if inner == nil {
			return nil, reason
		}
		// π^ip onto head: project the root variable away, grouping with
		// the independent-or rule (safe by the hierarchical property).
		pos := positions(innerHead, head)
		return func(ctx context.Context, s *formula.Space) (*sprout.ProbTable, error) {
			t, err := inner(ctx, s)
			if err != nil {
				return nil, err
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return t.IndepProject(pos), nil
		}, ""
	}
	// Independent components: compile each with its share of the head,
	// then join on shared head variables. An intermediate join emits
	// each variable of either side once; the last one emits head.
	parts := make([]safeEval, len(comps))
	joins := make([]joinStep, len(comps)-1)
	var acc []int // classes of the columns joined so far
	for i, comp := range comps {
		compHead := intersect(head, c.varsOf(comp))
		p, reason := c.compile(comp, compHead)
		if p == nil {
			return nil, reason
		}
		parts[i] = p
		if i == 0 {
			acc = compHead
			continue
		}
		shared := intersect(acc, compHead)
		both := append(append([]int{}, acc...), compHead...)
		out := head
		if i < len(comps)-1 {
			out = sortedUnique(both)
		}
		joins[i-1] = joinStep{
			lcols: positions(acc, shared),
			rcols: positions(compHead, shared),
			keep:  positions(both, out),
		}
		acc = out
	}
	return func(ctx context.Context, s *formula.Space) (*sprout.ProbTable, error) {
		t, err := parts[0](ctx, s)
		if err != nil {
			return nil, err
		}
		for i, p := range parts[1:] {
			r, err := p(ctx, s)
			if err != nil {
				return nil, err
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			t = sprout.IndepJoinOn(t, r, joins[i].lcols, joins[i].rcols, joins[i].keep)
		}
		return t, nil
	}, ""
}

// joinStep is one independent join of a component chain, resolved to
// column positions (sprout.IndepJoinOn's arguments): the components
// joined so far meet the next one on their shared variables — none
// makes it the Cartesian product of independent components.
type joinStep struct {
	lcols, rcols, keep []int
}

// leafEval compiles a single subgoal: filter, intra-leaf equality
// selections, then independent-project onto the head classes, fused
// into one scan of the relation's tuples that feeds the grouping kernel
// directly. Sound for event-independent tuples (checked before
// routing).
func (c *safeCompiler) leafEval(li int, head []int) safeEval {
	leaf := c.leaves[li]
	// Columns equated within the leaf (one class, several columns) need
	// an equality selection before projecting one representative.
	var eqGroups [][]int
	for _, class := range c.leafClasses[li] {
		if cols := c.colsOf[class][li]; len(cols) > 1 {
			eqGroups = append(eqGroups, cols)
		}
	}
	pos := make([]int, len(head))
	for i, h := range head {
		pos[i] = c.colsOf[h][li][0]
	}
	return func(ctx context.Context, s *formula.Space) (*sprout.ProbTable, error) {
		g := sprout.NewGrouper(len(pos))
		tups := leaf.rel.Tups
	tuples:
		for i := range tups {
			if i%cancelStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			vals := tups[i].Vals
			if !leaf.qualifies(vals) {
				continue
			}
			for _, eq := range eqGroups {
				for _, col := range eq[1:] {
					if vals[col] != vals[eq[0]] {
						continue tuples
					}
				}
			}
			g.Add(vals, pos, tups[i].Lin.Probability(s))
		}
		return g.Table(), nil
	}
}

// components partitions sub into connectivity components w.r.t. shared
// classes not in head.
func (c *safeCompiler) components(sub []int, head []int) [][]int {
	id := make(map[int]int, len(sub)) // leaf → component
	for i, li := range sub {
		id[li] = i
	}
	var find func(x int) int
	comp := make([]int, len(sub))
	for i := range comp {
		comp[i] = i
	}
	find = func(x int) int {
		for comp[x] != x {
			comp[x] = comp[comp[x]]
			x = comp[x]
		}
		return x
	}
	for class, byLeaf := range c.colsOf {
		if contains(head, class) {
			continue
		}
		prev := -1
		for _, li := range sub {
			if _, ok := byLeaf[li]; !ok {
				continue
			}
			if prev >= 0 {
				ra, rb := find(id[prev]), find(id[li])
				if ra != rb {
					comp[ra] = rb
				}
			}
			prev = li
		}
	}
	groups := make(map[int][]int)
	var order []int
	for i, li := range sub {
		r := find(i)
		if _, ok := groups[r]; !ok {
			order = append(order, r)
		}
		groups[r] = append(groups[r], li)
	}
	out := make([][]int, 0, len(order))
	for _, r := range order {
		out = append(out, groups[r])
	}
	return out
}

// rootVar finds a class present in every subgoal of sub and not in
// head.
func (c *safeCompiler) rootVar(sub []int, head []int) (int, bool) {
	counts := make(map[int]int)
	for _, li := range sub {
		for _, class := range c.leafClasses[li] {
			counts[class]++
		}
	}
	best, found := 0, false
	for class, n := range counts {
		if n == len(sub) && !contains(head, class) {
			if !found || class < best {
				best, found = class, true
			}
		}
	}
	return best, found
}

// varsOf returns the sorted classes present in the given subgoals.
func (c *safeCompiler) varsOf(sub []int) []int {
	var all []int
	for _, li := range sub {
		all = append(all, c.leafClasses[li]...)
	}
	return sortedUnique(all)
}

// answers evaluates the plan and maps the root table into requested
// head-column order, sorted like pdb.GroupProject
// (pdb.CompareValueKeys), keeping every route's answer order aligned.
// The answers' values share one arena allocated here.
func (sp *safePlan) answers(ctx context.Context, s *formula.Space) ([]pdb.AnswerConf, error) {
	t, err := sp.eval(ctx, s)
	if err != nil {
		return nil, err
	}
	w := len(sp.headPos)
	arena := make([]pdb.Value, 0, len(t.Rows)*w)
	out := make([]pdb.AnswerConf, len(t.Rows))
	for i, r := range t.Rows {
		for _, p := range sp.headPos {
			arena = append(arena, r.Vals[p])
		}
		out[i] = exactAnswer(arena[i*w:(i+1)*w:(i+1)*w], r.P)
	}
	slices.SortFunc(out, func(a, b pdb.AnswerConf) int { return pdb.CompareValueKeys(a.Vals, b.Vals) })
	return out, nil
}

// positions returns, for each class in want, its column position in
// vars.
func positions(vars, want []int) []int {
	out := make([]int, len(want))
	for i, v := range want {
		out[i] = slices.Index(vars, v)
	}
	return out
}

func sortedUnique(xs []int) []int {
	if len(xs) == 0 {
		return nil
	}
	out := append([]int{}, xs...)
	sort.Ints(out)
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

func intersect(a, b []int) []int {
	var out []int
	for _, x := range a {
		if contains(b, x) {
			out = append(out, x)
		}
	}
	return out
}

func contains(xs []int, x int) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
