package plan

import (
	"context"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/formula"
	"repro/internal/pdb"
	"repro/internal/rank"
)

// rankGroundTruth computes the expected ranked answers by evaluating
// the unranked plan exactly and sorting by probability descending
// (stable — value order breaks ties).
func rankGroundTruth(t *testing.T, s *formula.Space, inner Node) []pdb.AnswerConf {
	t.Helper()
	all, err := Compile(inner).Answers(context.Background(), s, nil)
	if err != nil {
		t.Fatal(err)
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].P > all[b].P })
	return all
}

func checkRanked(t *testing.T, got, want []pdb.AnswerConf) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d ranked answers, want %d (%+v vs %+v)", len(got), len(want), got, want)
	}
	for i := range got {
		if math.Abs(got[i].P-want[i].P) > 1e-9 {
			t.Fatalf("rank %d: P=%v want %v", i, got[i].P, want[i].P)
		}
	}
}

func TestPlannerRankTopKSafeRoute(t *testing.T) {
	s := formula.NewSpace()
	r, _ := tinyRelations(s)
	inner := &GroupLineage{Input: &Scan{Rel: r}, Cols: []int{1}}
	p := Compile(&TopK{Input: inner, K: 2})
	if p.Route != RouteSafe {
		t.Fatalf("route = %v (%s), want safe short-circuit", p.Route, p.Why)
	}
	if !strings.HasPrefix(p.Why, "top-2 over ") {
		t.Fatalf("Why = %q, want top-2 prefix", p.Why)
	}
	got, err := p.Answers(context.Background(), s, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := rankGroundTruth(t, s, inner)[:2]
	checkRanked(t, got, want)
	for _, a := range got {
		if !a.Res.Exact || !a.Res.Converged {
			t.Fatalf("safe-route ranked answer not exact: %+v", a)
		}
	}
}

func TestPlannerRankThresholdSafeRoute(t *testing.T) {
	s := formula.NewSpace()
	r, _ := tinyRelations(s)
	inner := &GroupLineage{Input: &Scan{Rel: r}, Cols: []int{1}}
	p := Compile(&Threshold{Input: inner, Tau: 0.55})
	if p.Route != RouteSafe {
		t.Fatalf("route = %v (%s), want safe", p.Route, p.Why)
	}
	got, err := p.Answers(context.Background(), s, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []pdb.AnswerConf
	for _, a := range rankGroundTruth(t, s, inner) {
		if a.P >= 0.55 {
			want = append(want, a)
		}
	}
	checkRanked(t, got, want)
}

// correlatedRelation forces the lineage route: two tuples share a
// variable, so the structural routes' independence precondition fails.
func correlatedRelation(s *formula.Space) *pdb.Relation {
	x := s.AddBool(0.5)
	rel := &pdb.Relation{Name: "C", Cols: []string{"a"}}
	for i := 0; i < 6; i++ {
		cl := formula.MustClause(formula.Pos(s.AddBool(0.1 + 0.12*float64(i))))
		if i%2 == 0 {
			cl, _ = cl.Merge(formula.MustClause(formula.Pos(x)))
		}
		rel.Tups = append(rel.Tups, pdb.Tuple{Vals: []pdb.Value{pdb.Value(i)}, Lin: cl})
	}
	return rel
}

func TestPlannerRankTopKLineageRoute(t *testing.T) {
	s := formula.NewSpace()
	rel := correlatedRelation(s)
	inner := &GroupLineage{Input: &Scan{Rel: rel}, Cols: []int{0}}
	p := Compile(&TopK{Input: inner, K: 3})
	if p.Route != RouteLineage {
		t.Fatalf("route = %v (%s), want lineage", p.Route, p.Why)
	}
	got, err := p.Answers(context.Background(), s, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := rankGroundTruth(t, s, inner)[:3]
	checkRanked(t, got, want)
}

func TestPlannerRankThresholdLineageRoute(t *testing.T) {
	s := formula.NewSpace()
	rel := correlatedRelation(s)
	inner := &GroupLineage{Input: &Scan{Rel: rel}, Cols: []int{0}}
	p := Compile(&Threshold{Input: inner, Tau: 0.3})
	if p.Route != RouteLineage {
		t.Fatalf("route = %v (%s), want lineage", p.Route, p.Why)
	}
	got, err := p.Answers(context.Background(), s, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []pdb.AnswerConf
	for _, a := range rankGroundTruth(t, s, inner) {
		if a.P >= 0.3 {
			want = append(want, a)
		}
	}
	checkRanked(t, got, want)
}

// A non-positive K fails identically on every route — no panic on the
// structural short-circuit, no route-dependent behavior.
func TestPlannerRankRejectsBadKUniformly(t *testing.T) {
	s := formula.NewSpace()
	r, _ := tinyRelations(s)
	safeInner := &GroupLineage{Input: &Scan{Rel: r}, Cols: []int{1}}
	lineageInner := &GroupLineage{Input: &Scan{Rel: correlatedRelation(s)}, Cols: []int{0}}
	for _, k := range []int{0, -1} {
		for _, inner := range []Node{safeInner, lineageInner} {
			p := Compile(&TopK{Input: inner, K: k})
			if _, err := p.Answers(context.Background(), s, nil); err == nil {
				t.Fatalf("K=%d on route %v accepted", k, p.Route)
			}
		}
	}
}

func TestPlannerRankNodeMetadata(t *testing.T) {
	s := formula.NewSpace()
	r, _ := tinyRelations(s)
	inner := &GroupLineage{Input: &Scan{Rel: r}, Cols: []int{1}}
	top := &TopK{Input: inner, K: 1}
	if Width(top) != 1 || len(Schema(top)) != 1 {
		t.Fatalf("TopK width/schema do not delegate: %d / %v", Width(top), Schema(top))
	}
	if Name(top) == "" || Name(&Threshold{Input: inner, Tau: 0.5}) == "" {
		t.Fatal("ranking nodes have no names")
	}
	// Below the root, ranking nodes taint the plan out of the
	// structural routes, and execution fails with an error — never the
	// runtime's panic.
	p := Compile(&GroupLineage{Input: &TopK{Input: &Scan{Rel: r}, K: 1}})
	if p.Route != RouteLineage || !strings.Contains(p.Why, "ranking node") {
		t.Fatalf("nested ranking node: route=%v why=%q", p.Route, p.Why)
	}
	if _, err := p.Answers(context.Background(), s, nil); err == nil {
		t.Fatal("nested ranking node executed without error")
	}
	// Same for a ranking root stacked on another ranking node.
	stacked := Compile(&TopK{Input: &Threshold{Input: inner, Tau: 0.3}, K: 1})
	if _, err := stacked.Answers(context.Background(), s, nil); err == nil {
		t.Fatal("stacked ranking roots executed without error")
	}
}

// Evaluate has value receivers, so a pointer to an evaluator is an
// Evaluator too: it must configure the scheduler exactly like its
// value — ε floor, per-answer limits, fragment cache and all — and a
// nil pointer like no evaluator at all. Approx's options pass as they
// stand; MonteCarlo lends its MaxNodes, MaxWork and Timeout.
func TestRankOptionsFromPointerEvaluator(t *testing.T) {
	approx := engine.Approx{Eps: 0.01, Kind: engine.Relative, MaxNodes: 7, Frags: formula.NewFragCache(0)}
	exact := engine.Approx{MaxNodes: 7, Frags: formula.NewFragCache(0)}
	mc := engine.MonteCarlo{Eps: 0.1, Delta: 0.01, Budget: engine.Budget{MaxNodes: 7, MaxWork: 9, Timeout: time.Second}}
	for _, c := range []struct {
		name        string
		val, ptr    engine.Evaluator
		nilPointer  engine.Evaluator
		wantOpt     rank.Options
		wantTimeout time.Duration
	}{
		{"approx", approx, &approx, (*engine.Approx)(nil), approx, 0},
		{"exact", exact, &exact, (*engine.Approx)(nil), exact, 0},
		{"montecarlo", mc, &mc, (*engine.MonteCarlo)(nil), rank.Options{MaxNodes: 7, MaxWork: 9}, time.Second},
	} {
		for _, ev := range []engine.Evaluator{c.val, c.ptr} {
			if opt, timeout := (&Plan{}).rankOptions(ev); !reflect.DeepEqual(opt, c.wantOpt) || timeout != c.wantTimeout {
				t.Fatalf("%s (%T): options %+v timeout %v, want %+v %v", c.name, ev, opt, timeout, c.wantOpt, c.wantTimeout)
			}
		}
		if opt, timeout := (&Plan{}).rankOptions(c.nilPointer); !reflect.DeepEqual(opt, rank.Options{}) || timeout != 0 {
			t.Fatalf("%s: nil pointer gave %+v %v, want zero options", c.name, opt, timeout)
		}
	}
}
