package pdb

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"sort"
	"strings"

	"repro/internal/formula"
)

// The eager, fully-materializing relational algebra: the reference the
// plan package's tests drive through their IR interpreter
// (plan/oracle_test.go), and the operators of the Figure 5
// reproduction. Queries run through plan's pipelined runtime instead.
//
// Relations and their tuples are immutable once built: every operator
// below returns output tuples whose Vals slices are freshly allocated
// (never aliasing an input's), and never writes into its inputs. Callers
// therefore may retain, share and re-query input relations freely.
// Rename is the one deliberate exception — it is a header-only view over
// the same tuples, documented there.

// maxDerivedName caps derived relation names; longer compositions
// collapse to a stable hash so nested joins cannot grow names without
// bound.
const maxDerivedName = 40

// DerivedName builds the deterministic name of a derived relation from
// an operator symbol and the operand names: "σ(R)" for one operand,
// "(L⋈R)" for two. Results longer than maxDerivedName bytes collapse to
// "op#xxxxxxxx", an FNV-1a hash of the full composition — stable across
// runs, bounded regardless of nesting depth, and still unique enough for
// errors and traces.
func DerivedName(op string, parts ...string) string {
	var b strings.Builder
	if len(parts) == 1 {
		b.WriteString(op)
		b.WriteByte('(')
		b.WriteString(parts[0])
		b.WriteByte(')')
	} else {
		b.WriteByte('(')
		for i, p := range parts {
			if i > 0 {
				b.WriteString(op)
			}
			b.WriteString(p)
		}
		b.WriteByte(')')
	}
	name := b.String()
	if len(name) <= maxDerivedName {
		return name
	}
	h := fnv.New32a()
	h.Write([]byte(name))
	return fmt.Sprintf("%s#%08x", op, h.Sum32())
}

// Select returns the tuples of r satisfying pred, lineage unchanged.
// Output Vals are copies, so mutating an output tuple cannot corrupt r
// (and vice versa).
func Select(r *Relation, pred func(vals []Value) bool) *Relation {
	out := &Relation{Name: DerivedName("σ", r.Name), Cols: r.Cols}
	for _, t := range r.Tups {
		if pred(t.Vals) {
			vals := make([]Value, len(t.Vals))
			copy(vals, t.Vals)
			out.Tups = append(out.Tups, Tuple{Vals: vals, Lin: t.Lin})
		}
	}
	return out
}

// EquiJoin hash-joins l and r on l.Cols[lcol] = r.Cols[rcol]. The output
// schema is l's columns followed by r's; output lineage is the merge of
// the input clauses, dropping combinations whose lineage is inconsistent
// (mutually exclusive BID alternatives can never co-exist).
func EquiJoin(l, r *Relation, lcol, rcol int) *Relation {
	out := &Relation{
		Name: DerivedName("⋈", l.Name, r.Name),
		Cols: joinCols(l, r),
	}
	index := make(map[Value][]int, len(r.Tups))
	for i, t := range r.Tups {
		index[t.Vals[rcol]] = append(index[t.Vals[rcol]], i)
	}
	for _, lt := range l.Tups {
		for _, ri := range index[lt.Vals[lcol]] {
			rt := r.Tups[ri]
			if merged, ok := lt.Lin.Merge(rt.Lin); ok {
				out.Tups = append(out.Tups, Tuple{
					Vals: concatVals(lt.Vals, rt.Vals),
					Lin:  merged,
				})
			}
		}
	}
	return out
}

// ThetaJoin nested-loop-joins l and r with an arbitrary predicate over
// the two tuples' values; used for the inequality joins of IQ queries.
func ThetaJoin(l, r *Relation, pred func(lv, rv []Value) bool) *Relation {
	out := &Relation{
		Name: DerivedName("⋈θ", l.Name, r.Name),
		Cols: joinCols(l, r),
	}
	for _, lt := range l.Tups {
		for _, rt := range r.Tups {
			if !pred(lt.Vals, rt.Vals) {
				continue
			}
			if merged, ok := lt.Lin.Merge(rt.Lin); ok {
				out.Tups = append(out.Tups, Tuple{
					Vals: concatVals(lt.Vals, rt.Vals),
					Lin:  merged,
				})
			}
		}
	}
	return out
}

// Answer is one answer tuple with its lineage DNF.
type Answer struct {
	Vals []Value
	Lin  formula.DNF
}

// GroupProject projects r onto the given column positions and groups
// equal answer values, collecting the lineage clauses of each group into
// the answer's DNF (duplicate elimination is what turns clause lineage
// into disjunctions). Answers are returned sorted by value for
// determinism.
func GroupProject(r *Relation, cols []int) []Answer {
	groups := make(map[string]*Answer)
	var order []string
	var key []byte // reused: a tuple of a known group allocates nothing
	for _, t := range r.Tups {
		key = key[:0]
		for _, c := range cols {
			key = appendValueKey(key, t.Vals[c])
		}
		a, ok := groups[string(key)]
		if !ok {
			vals := make([]Value, len(cols))
			for i, c := range cols {
				vals[i] = t.Vals[c]
			}
			a = &Answer{Vals: vals}
			k := string(key)
			groups[k] = a
			order = append(order, k)
		}
		a.Lin = append(a.Lin, t.Lin)
	}
	sort.Strings(order)
	out := make([]Answer, 0, len(order))
	for _, k := range order {
		a := groups[k]
		a.Lin = a.Lin.Normalize()
		out = append(out, *a)
	}
	return out
}

// BooleanAnswer projects away all columns: the lineage of the Boolean
// query answer is the DNF of all tuple lineages. The second result
// reports whether any tuple qualified (an empty relation means the
// answer is certainly false).
func BooleanAnswer(r *Relation) (formula.DNF, bool) {
	if len(r.Tups) == 0 {
		return nil, false
	}
	d := make(formula.DNF, 0, len(r.Tups))
	for _, t := range r.Tups {
		d = append(d, t.Lin)
	}
	return d.Normalize(), true
}

// Rename returns r with a new name and column names (for self-joins).
// It is a header-only view: the returned relation shares r's tuples, so
// it must be treated as immutable like every relation.
func Rename(r *Relation, name string, cols []string) *Relation {
	if len(cols) != len(r.Cols) {
		// invariant: Rename is a workload-construction helper; a column
		// count mismatch is a programming error, never runtime input.
		panic("pdb: Rename column count mismatch")
	}
	return &Relation{Name: name, Cols: cols, Tups: r.Tups}
}

func joinCols(l, r *Relation) []string {
	cols := make([]string, 0, len(l.Cols)+len(r.Cols))
	for _, c := range l.Cols {
		cols = append(cols, l.Name+"."+c)
	}
	for _, c := range r.Cols {
		cols = append(cols, r.Name+"."+c)
	}
	return cols
}

func concatVals(a, b []Value) []Value {
	out := make([]Value, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}

// WriteValueKey appends the canonical grouping-key encoding of v
// ('|' then 8 little-endian bytes). GroupProject groups and orders
// answers by concatenations of this encoding; the plan runtime's
// lineage grouping and the safe-plan operators order by
// CompareValueKeys, the same order without the strings, so routed
// answer order never diverges from GroupProject's.
func WriteValueKey(b *strings.Builder, v Value) {
	var buf [9]byte
	b.Write(appendValueKey(buf[:0], v))
}

// appendValueKey is WriteValueKey onto a byte slice.
func appendValueKey(key []byte, v Value) []byte {
	u := uint64(v)
	return append(key, '|', byte(u), byte(u>>8), byte(u>>16), byte(u>>24), byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

// ValsKey returns the grouping key of a value vector (the concatenated
// WriteValueKey encoding).
func ValsKey(vals []Value) string {
	var b strings.Builder
	b.Grow(len(vals) * 9)
	for _, v := range vals {
		WriteValueKey(&b, v)
	}
	return b.String()
}

// CompareValueKeys orders value vectors exactly as their ValsKey
// encodings order as strings, without building them: column by column,
// the unsigned order of the byte-reversed value (the encoding writes
// the least significant byte first), a proper prefix before its
// extensions. This is the order GroupProject, the plan runtime and the
// safe-plan operators emit groups in. It is not numeric order for
// negative values or values of 2⁸ and above: 256 sorts before 1.
func CompareValueKeys(a, b []Value) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if bits.ReverseBytes64(uint64(a[i])) < bits.ReverseBytes64(uint64(b[i])) {
				return -1
			}
			return 1
		}
	}
	return len(a) - len(b)
}
