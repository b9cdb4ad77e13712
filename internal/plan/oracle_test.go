package plan

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/formula"
	"repro/internal/pdb"
)

// The oracle: the string-keyed safe-plan pipeline exactly as it ran
// before the grouping kernel replaced it — sprout's ProbTable operators
// (one []Value and one string key per input row, groups emitted in
// sorted key order) and the plan package's evaluation closures over
// them (a ProbRow table per leaf, up to four tables per join, answers
// sorted by pdb.ValsKey) — moved here verbatim, identifiers prefixed
// with ref where they would collide. The production pipeline must
// return the same rows, in the same order, with the same
// math.Float64bits(P). The structural half of compilation
// (safeCompiler's classes, components and root variables) is shared:
// it decides the plan, not the arithmetic. refEventIndependent is the
// map-based independence scan the bitset replaced. evalIR, at the end,
// is the eager reference for whole queries.

// refTable is an extensional probabilistic table: each row carries the
// probability of the independent event it represents. Safe plans
// guarantee the independence assumptions each operator needs.
type refTable struct {
	Cols []string
	Rows []refRow
}

// refRow is a row and the probability of its event.
type refRow struct {
	Vals []pdb.Value
	P    float64
}

// Select keeps the rows satisfying pred.
func (t *refTable) Select(pred func(vals []pdb.Value) bool) *refTable {
	out := &refTable{Cols: t.Cols}
	for _, r := range t.Rows {
		if pred(r.Vals) {
			out.Rows = append(out.Rows, r)
		}
	}
	return out
}

// IndepJoin hash-joins two tables on one column each, multiplying row
// probabilities. Safe when the joined rows are independent events —
// i.e. the two inputs come from distinct relations (no self-joins).
func refIndepJoin(l, r *refTable, lcol, rcol int) *refTable {
	out := &refTable{Cols: append(append([]string{}, l.Cols...), r.Cols...)}
	index := make(map[pdb.Value][]int, len(r.Rows))
	for i, row := range r.Rows {
		index[row.Vals[rcol]] = append(index[row.Vals[rcol]], i)
	}
	for _, lrow := range l.Rows {
		for _, ri := range index[lrow.Vals[lcol]] {
			rrow := r.Rows[ri]
			vals := make([]pdb.Value, 0, len(lrow.Vals)+len(rrow.Vals))
			vals = append(vals, lrow.Vals...)
			vals = append(vals, rrow.Vals...)
			out.Rows = append(out.Rows, refRow{Vals: vals, P: lrow.P * rrow.P})
		}
	}
	return out
}

// IndepProject projects onto the given columns, combining the rows of
// each group with the independent-or rule 1 − Π(1 − p). Safe when rows
// collapsing into one group are independent events — the condition the
// hierarchical property guarantees at every projection of a safe plan.
func (t *refTable) IndepProject(cols []int) *refTable {
	out := &refTable{Cols: make([]string, len(cols))}
	for i, c := range cols {
		out.Cols[i] = t.Cols[c]
	}
	type group struct {
		vals []pdb.Value
		q    float64 // Π (1 − p)
	}
	groups := make(map[string]*group)
	var order []string
	var key strings.Builder
	for _, r := range t.Rows {
		key.Reset()
		vals := make([]pdb.Value, len(cols))
		for i, c := range cols {
			vals[i] = r.Vals[c]
			refWriteVal(&key, r.Vals[c])
		}
		k := key.String()
		g, ok := groups[k]
		if !ok {
			g = &group{vals: vals, q: 1}
			groups[k] = g
			order = append(order, k)
		}
		g.q *= 1 - r.P
	}
	sort.Strings(order)
	for _, k := range order {
		g := groups[k]
		out.Rows = append(out.Rows, refRow{Vals: g.vals, P: 1 - g.q})
	}
	return out
}

func refWriteVal(b *strings.Builder, v pdb.Value) {
	u := uint64(v)
	var buf [9]byte
	buf[0] = '|'
	for i := 1; i < 9; i++ {
		buf[i] = byte(u)
		u >>= 8
	}
	b.Write(buf[:])
}

// refSafePlan is a compiled safe plan.
type refSafePlan struct {
	// eval produces the extensional answer table; its columns are the
	// sorted head variable classes of the root.
	eval func(s *formula.Space) *refVarTable
	// headClasses maps each requested output column to its variable
	// class (answers reorder the root table into this order).
	headClasses []int
	// desc is a one-line plan description for traces.
	desc string
}

// refSafeRow is one extensional answer: values in requested head-column
// order, and the exact confidence.
type refSafeRow struct {
	vals []pdb.Value
	p    float64
}

// refVarTable is a refTable whose columns are labeled with query
// variable classes.
type refVarTable struct {
	t    *refTable
	vars []int
}

func (vt *refVarTable) pos(class int) int {
	for i, v := range vt.vars {
		if v == class {
			return i
		}
	}
	return -1
}

// compileSafe attempts the safe route. On failure it returns the reason
// the query is not (recognizably) safe. Compilation is pure plan-shape
// work; leaf filtering happens inside the compiled evaluator, at
// evaluation time.
func refCompileSafe(a *analysis) (*refSafePlan, string) {
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
	eval, reason := c.refCompile(allLeaves, sortedUnique(head))
	if eval == nil {
		return nil, reason
	}
	names := make([]string, len(a.leaves))
	for i := range a.leaves {
		names[i] = a.leaves[i].rel.Name
	}
	return &refSafePlan{
		eval:        eval,
		headClasses: head,
		desc:        fmt.Sprintf("safe plan over %s", strings.Join(names, ", ")),
	}, ""
}

// compile builds the evaluator for the subgoals in sub with the given
// (sorted) head classes, or returns the reason it cannot.
func (c *safeCompiler) refCompile(sub []int, head []int) (func(s *formula.Space) *refVarTable, string) {
	if len(sub) == 1 {
		return c.refLeafEval(sub[0], head), ""
	}
	comps := c.components(sub, head)
	if len(comps) == 1 {
		root, ok := c.rootVar(sub, head)
		if !ok {
			return nil, fmt.Sprintf("not hierarchical: no root variable over %d connected subgoals", len(sub))
		}
		inner, reason := c.refCompile(sub, sortedUnique(append(append([]int{}, head...), root)))
		if inner == nil {
			return nil, reason
		}
		// π^ip onto head: project the root variable away, grouping with
		// the independent-or rule (safe by the hierarchical property).
		return func(s *formula.Space) *refVarTable {
			vt := inner(s)
			pos := make([]int, len(head))
			for i, h := range head {
				pos[i] = vt.pos(h)
			}
			return &refVarTable{t: vt.t.IndepProject(pos), vars: head}
		}, ""
	}
	// Independent components: compile each with its share of the head,
	// then join on shared head variables.
	parts := make([]func(s *formula.Space) *refVarTable, len(comps))
	for i, comp := range comps {
		compHead := intersect(head, c.varsOf(comp))
		p, reason := c.refCompile(comp, compHead)
		if p == nil {
			return nil, reason
		}
		parts[i] = p
	}
	return func(s *formula.Space) *refVarTable {
		acc := parts[0](s)
		for _, p := range parts[1:] {
			acc = refJoinVarTables(acc, p(s))
		}
		return refReorder(acc, head)
	}, ""
}

// leafEval compiles a single subgoal: filter, intra-leaf equality
// selections, then independent-project onto the head classes. Sound for
// event-independent tuples (checked before routing).
func (c *safeCompiler) refLeafEval(li int, head []int) func(s *formula.Space) *refVarTable {
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
		cols := c.colsOf[h][li]
		pos[i] = cols[0]
	}
	return func(s *formula.Space) *refVarTable {
		t := refLeafTable(s, leaf)
		for _, g := range eqGroups {
			g := g
			t = t.Select(func(v []pdb.Value) bool {
				for _, col := range g[1:] {
					if v[col] != v[g[0]] {
						return false
					}
				}
				return true
			})
		}
		return &refVarTable{t: t.IndepProject(pos), vars: head}
	}
}

// refLeafTable copies a leaf's qualifying tuples into an extensional
// table — one refRow per tuple, the intermediate the fused leaf scan
// no longer builds — applying the pushed-down filters in place.
func refLeafTable(s *formula.Space, l leafInfo) *refTable {
	t := &refTable{Cols: l.rel.Cols}
tuples:
	for _, tup := range l.rel.Tups {
		for _, f := range l.filters {
			if !f(tup.Vals) {
				continue tuples
			}
		}
		t.Rows = append(t.Rows, refRow{Vals: tup.Vals, P: tup.Lin.Probability(s)})
	}
	return t
}

// refJoinVarTables joins two independent extensional tables on their
// shared variables (independent join), or cross-multiplies when they
// share none.
func refJoinVarTables(l, r *refVarTable) *refVarTable {
	shared := intersect(l.vars, r.vars)
	if len(shared) == 0 {
		return refCrossVarTables(l, r)
	}
	j := refIndepJoin(l.t, r.t, l.pos(shared[0]), r.pos(shared[0]))
	lw := len(l.vars)
	// Residual equalities on further shared variables.
	for _, sv := range shared[1:] {
		lp, rp := l.pos(sv), lw+r.pos(sv)
		j = j.Select(func(v []pdb.Value) bool { return v[lp] == v[rp] })
	}
	// Drop the right-side duplicates of the shared variables (a pure
	// column removal — no grouping, so no independence assumption).
	keep := make([]int, 0, lw+len(r.vars)-len(shared))
	vars := make([]int, 0, cap(keep))
	for i, v := range l.vars {
		keep = append(keep, i)
		vars = append(vars, v)
	}
	for i, v := range r.vars {
		if !contains(shared, v) {
			keep = append(keep, lw+i)
			vars = append(vars, v)
		}
	}
	return &refVarTable{t: refPickCols(j, keep), vars: vars}
}

// refCrossVarTables is the Cartesian product with probability
// multiplication (independent components).
func refCrossVarTables(l, r *refVarTable) *refVarTable {
	out := &refTable{Cols: append(append([]string{}, l.t.Cols...), r.t.Cols...)}
	for _, lr := range l.t.Rows {
		for _, rr := range r.t.Rows {
			vals := make([]pdb.Value, 0, len(lr.Vals)+len(rr.Vals))
			vals = append(vals, lr.Vals...)
			vals = append(vals, rr.Vals...)
			out.Rows = append(out.Rows, refRow{Vals: vals, P: lr.P * rr.P})
		}
	}
	return &refVarTable{t: out, vars: append(append([]int{}, l.vars...), r.vars...)}
}

// refPickCols returns t narrowed to the given columns, row for row.
func refPickCols(t *refTable, cols []int) *refTable {
	out := &refTable{Cols: make([]string, len(cols))}
	for i, c := range cols {
		out.Cols[i] = t.Cols[c]
	}
	for _, r := range t.Rows {
		vals := make([]pdb.Value, len(cols))
		for i, c := range cols {
			vals[i] = r.Vals[c]
		}
		out.Rows = append(out.Rows, refRow{Vals: vals, P: r.P})
	}
	return out
}

// reorder permutes vt's columns into the given variable order.
func refReorder(vt *refVarTable, vars []int) *refVarTable {
	cols := make([]int, len(vars))
	for i, v := range vars {
		cols[i] = vt.pos(v)
	}
	return &refVarTable{t: refPickCols(vt.t, cols), vars: append([]int{}, vars...)}
}

// answers evaluates the plan and maps the root table into requested
// head-column order, sorted like pdb.GroupProject.
func (sp *refSafePlan) answers(s *formula.Space) []refSafeRow {
	vt := sp.eval(s)
	pos := make([]int, len(sp.headClasses))
	for i, class := range sp.headClasses {
		pos[i] = vt.pos(class)
	}
	rows := make([]refSafeRow, 0, len(vt.t.Rows))
	keys := make([]string, 0, len(vt.t.Rows))
	for _, r := range vt.t.Rows {
		vals := make([]pdb.Value, len(pos))
		for i, p := range pos {
			vals[i] = r.Vals[p]
		}
		rows = append(rows, refSafeRow{vals: vals, p: r.P})
		// Keys are precomputed once per row (not per comparison) in
		// pdb.GroupProject's encoding, keeping the answer orders aligned.
		keys = append(keys, pdb.ValsKey(vals))
	}
	sort.Sort(&refRowsByKey{rows: rows, keys: keys})
	return rows
}

// refRowsByKey sorts rows and their precomputed grouping keys together.
type refRowsByKey struct {
	rows []refSafeRow
	keys []string
}

func (s *refRowsByKey) Len() int           { return len(s.rows) }
func (s *refRowsByKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *refRowsByKey) Swap(i, j int) {
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// refEventIndependent is eventIndependent keeping the variables it has
// met in a map — one insert per qualifying tuple — where the production
// scan sets one bit.
func refEventIndependent(leaves []leafInfo) bool {
	seen := make(map[formula.Var]struct{})
	for i := range leaves {
		l := &leaves[i]
	tuples:
		for _, t := range l.rel.Tups {
			for _, f := range l.filters {
				if !f(t.Vals) {
					continue tuples
				}
			}
			for _, at := range t.Lin {
				if _, dup := seen[at.Var]; dup {
					return false
				}
				seen[at.Var] = struct{}{}
			}
		}
	}
	return true
}

// evalIR is the eager reference evaluator: the IR interpreted over
// pdb's algebra operators, every intermediate relation materialized,
// grouped by pdb.GroupProject (a Boolean head by pdb.BooleanAnswer).
// It shares nothing with the cursors, the interner or the structural
// kernels; Lineage and every route must return its answers, in its
// order. root must be valid IR.
func evalIR(root Node) []pdb.Answer {
	g, ok := root.(*GroupLineage)
	if !ok {
		g = &GroupLineage{Input: root}
	}
	rel := evalRel(g.Input)
	if len(g.Cols) > 0 {
		return pdb.GroupProject(rel, g.Cols)
	}
	if lin, some := pdb.BooleanAnswer(rel); some {
		return []pdb.Answer{{Lin: lin}}
	}
	return nil
}

func evalRel(n Node) *pdb.Relation {
	switch t := n.(type) {
	case *Scan:
		return t.Rel
	case *Select:
		return pdb.Select(evalRel(t.Input), t.Pred)
	case *EquiJoin:
		l := evalRel(t.Left)
		j := pdb.EquiJoin(l, evalRel(t.Right), t.LeftCol, t.RightCol)
		if t.On != nil {
			w := len(l.Cols)
			j = pdb.Select(j, func(v []pdb.Value) bool { return t.On(v[:w], v[w:]) })
		}
		return j
	case *ThetaJoin:
		return pdb.ThetaJoin(evalRel(t.Left), evalRel(t.Right), func(lv, rv []pdb.Value) bool {
			if t.Less != nil && lv[t.Less.LeftCol] >= rv[t.Less.RightCol] {
				return false
			}
			return t.Pred == nil || t.Pred(lv, rv)
		})
	case *Project:
		in := evalRel(t.Input)
		out := &pdb.Relation{Name: "π", Cols: make([]string, len(t.Cols))}
		for i, c := range t.Cols {
			out.Cols[i] = in.Cols[c]
		}
		for _, tup := range in.Tups {
			vals := make([]pdb.Value, len(t.Cols))
			for i, c := range t.Cols {
				vals[i] = tup.Vals[c]
			}
			out.Tups = append(out.Tups, pdb.Tuple{Vals: vals, Lin: tup.Lin})
		}
		return out
	}
	panic(fmt.Sprintf("evalIR: %T is not a relational operator", n))
}
