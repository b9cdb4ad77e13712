package plan

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/formula"
	"repro/internal/obs"
	"repro/internal/pdb"
)

func tinyRelations(s *formula.Space) (*pdb.Relation, *pdb.Relation) {
	r := pdb.NewTupleIndependent(s, "R", []string{"a", "b"},
		[][]pdb.Value{{1, 10}, {2, 20}, {3, 20}},
		[]float64{0.5, 0.6, 0.7}, 0)
	t := pdb.NewTupleIndependent(s, "T", []string{"b", "c"},
		[][]pdb.Value{{10, 100}, {20, 200}, {20, 300}},
		[]float64{0.2, 0.3, 0.4}, 1)
	return r, t
}

// answersEqual compares answers by value and exact lineage confidence.
func answersEqual(t *testing.T, s *formula.Space, got, want []pdb.Answer) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d answers, want %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i].Vals) != len(want[i].Vals) {
			t.Fatalf("answer %d: vals %v vs %v", i, got[i].Vals, want[i].Vals)
		}
		for j := range got[i].Vals {
			if got[i].Vals[j] != want[i].Vals[j] {
				t.Fatalf("answer %d: vals %v vs %v", i, got[i].Vals, want[i].Vals)
			}
		}
		gp := exactP(s, got[i].Lin)
		wp := exactP(s, want[i].Lin)
		if math.Abs(gp-wp) > 1e-12 {
			t.Fatalf("answer %d: confidence %v vs %v", i, gp, wp)
		}
	}
}

func TestPlannerPipelineMatchesEagerOracle(t *testing.T) {
	s := formula.NewSpace()
	r, u := tinyRelations(s)
	join := &EquiJoin{Left: scan(r), Right: scan(u), LeftCol: 1, RightCol: 0} // R.b = T.b
	queries := []Node{
		// grouped equi join
		&GroupLineage{Input: join, Cols: []int{3}},
		// Boolean with selection
		&GroupLineage{Input: &EquiJoin{Left: sel(scan(r), func(v []pdb.Value) bool { return v[1] == 20 }), Right: scan(u), LeftCol: 1, RightCol: 0}},
		// theta join
		&GroupLineage{Input: &ThetaJoin{Left: scan(r), Right: scan(u), Pred: func(l, rv []pdb.Value) bool { return l[0] < rv[1] }}},
		// equi join with residual predicate
		&GroupLineage{Input: &EquiJoin{Left: scan(r), Right: scan(u), LeftCol: 1, RightCol: 0,
			On: func(l, rv []pdb.Value) bool { return rv[1] > 200 }}},
		// structured inequality under a reordering projection
		&GroupLineage{Input: &Project{Input: &ThetaJoin{Left: scan(r), Right: scan(u), Less: &Less{LeftCol: 0, RightCol: 1}}, Cols: []int{3, 0}}, Cols: []int{1}},
		// bare join: the Boolean query over its output
		join,
	}
	for i, q := range queries {
		want := evalIR(q)
		t.Logf("query %d: %d answers", i, len(want))
		answersEqual(t, s, Lineage(q), want)
	}
}

func TestPlannerPipelineEmptyAndNil(t *testing.T) {
	if got := Lineage(nil); got != nil {
		t.Fatalf("nil root: %v", got)
	}
	if got := Lineage(&GroupLineage{}); got != nil {
		t.Fatalf("GroupLineage without input: %v", got)
	}
	s := formula.NewSpace()
	r, u := tinyRelations(s)
	none := sel(scan(r), func(v []pdb.Value) bool { return false })
	if got := Lineage(&GroupLineage{Input: &EquiJoin{Left: none, Right: scan(u), LeftCol: 1, RightCol: 0}}); len(got) != 0 {
		t.Fatalf("filtered-out query: %v", got)
	}
}

// routedVsLineage checks the routed answers match evaluating the
// materialized lineage exactly.
func routedVsLineage(t *testing.T, s *formula.Space, p *Plan) {
	t.Helper()
	got, err := p.Answers(context.Background(), s, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := p.Lineage()
	if len(got) != len(want) {
		t.Fatalf("routed %d answers, lineage %d", len(got), len(want))
	}
	for i := range got {
		for j := range got[i].Vals {
			if got[i].Vals[j] != want[i].Vals[j] {
				t.Fatalf("answer %d: vals %v vs %v", i, got[i].Vals, want[i].Vals)
			}
		}
		wp := exactP(s, want[i].Lin)
		if math.Abs(got[i].P-wp) > 1e-12 {
			t.Fatalf("answer %d: routed %v vs lineage-exact %v", i, got[i].P, wp)
		}
	}
}

func TestPlannerRoutesSingleRelationToSafe(t *testing.T) {
	s := formula.NewSpace()
	r, _ := tinyRelations(s)
	root := &GroupLineage{
		Input: &Select{Input: &Scan{Rel: r}, Pred: func(v []pdb.Value) bool { return v[1] >= 10 }},
		Cols:  []int{1},
	}
	p := Compile(root)
	if p.Route != RouteSafe {
		t.Fatalf("route %v (%s), want safe", p.Route, p.Why)
	}
	routedVsLineage(t, s, p)
}

func TestPlannerRoutesHierarchicalJoinToSafe(t *testing.T) {
	s := formula.NewSpace()
	r, u := tinyRelations(s)
	// Boolean q() :- R(a,b), T(b,c): hierarchical (b in both subgoals).
	root := &GroupLineage{Input: &EquiJoin{
		Left: &Scan{Rel: r}, Right: &Scan{Rel: u}, LeftCol: 1, RightCol: 0,
	}}
	p := Compile(root)
	if p.Route != RouteSafe {
		t.Fatalf("route %v (%s), want safe", p.Route, p.Why)
	}
	routedVsLineage(t, s, p)

	// Grouped on the join variable: q(b) :- R(a,b), T(b,c).
	root2 := &GroupLineage{Input: &EquiJoin{
		Left: &Scan{Rel: r}, Right: &Scan{Rel: u}, LeftCol: 1, RightCol: 0,
	}, Cols: []int{1}}
	p2 := Compile(root2)
	if p2.Route != RouteSafe {
		t.Fatalf("route %v (%s), want safe", p2.Route, p2.Why)
	}
	routedVsLineage(t, s, p2)
}

func TestPlannerRoutesChainAndStarToIQ(t *testing.T) {
	s := formula.NewSpace()
	r := pdb.NewTupleIndependent(s, "R", []string{"x"},
		[][]pdb.Value{{1}, {5}, {9}}, []float64{0.5, 0.4, 0.3}, 0)
	u := pdb.NewTupleIndependent(s, "U", []string{"y"},
		[][]pdb.Value{{3}, {7}}, []float64{0.6, 0.2}, 1)
	w := pdb.NewTupleIndependent(s, "W", []string{"z"},
		[][]pdb.Value{{4}, {8}}, []float64{0.7, 0.1}, 2)

	chain := &GroupLineage{Input: &ThetaJoin{
		Left: &ThetaJoin{
			Left: &Scan{Rel: r}, Right: &Scan{Rel: u},
			Less: &Less{LeftCol: 0, RightCol: 0},
		},
		Right: &Scan{Rel: w},
		Less:  &Less{LeftCol: 1, RightCol: 0}, // u.y < w.z
	}}
	p := Compile(chain)
	if p.Route != RouteIQ || p.iq.kind != "chain" {
		t.Fatalf("route %v kind %v (%s), want IQ chain", p.Route, p.iq, p.Why)
	}
	routedVsLineage(t, s, p)

	star := &GroupLineage{Input: &ThetaJoin{
		Left: &ThetaJoin{
			Left: &Scan{Rel: r}, Right: &Scan{Rel: u},
			Less: &Less{LeftCol: 0, RightCol: 0},
		},
		Right: &Scan{Rel: w},
		Less:  &Less{LeftCol: 0, RightCol: 0}, // r.x < w.z
	}}
	p2 := Compile(star)
	if p2.Route != RouteIQ || p2.iq.kind != "star" {
		t.Fatalf("route %v (%s), want IQ star", p2.Route, p2.Why)
	}
	routedVsLineage(t, s, p2)
}

func TestPlannerRoutesHardPatternToLineage(t *testing.T) {
	s := formula.NewSpace()
	// The #P-hard pattern q() :- R(x), S(x,y), U(y).
	r := pdb.NewTupleIndependent(s, "R", []string{"x"},
		[][]pdb.Value{{1}, {2}}, []float64{0.5, 0.6}, 0)
	sv := pdb.NewTupleIndependent(s, "S", []string{"x", "y"},
		[][]pdb.Value{{1, 7}, {2, 8}, {1, 8}}, []float64{0.3, 0.4, 0.5}, 1)
	u := pdb.NewTupleIndependent(s, "U", []string{"y"},
		[][]pdb.Value{{7}, {8}}, []float64{0.2, 0.9}, 2)
	root := &GroupLineage{Input: &EquiJoin{
		Left: &EquiJoin{
			Left: &Scan{Rel: r}, Right: &Scan{Rel: sv}, LeftCol: 0, RightCol: 0,
		},
		Right: &Scan{Rel: u}, LeftCol: 2, RightCol: 0, // s.y = u.y
	}}
	p := Compile(root)
	if p.Route != RouteLineage {
		t.Fatalf("route %v (%s), want lineage", p.Route, p.Why)
	}
	routedVsLineage(t, s, p)
}

func TestPlannerRefusesCorrelatedEvents(t *testing.T) {
	s := formula.NewSpace()
	// Two BID alternatives of one block share a variable: events are
	// correlated, structural routes must refuse.
	b := pdb.NewBID(s, "B", []string{"k"}, [][]pdb.BIDAlternative{{
		{Vals: []pdb.Value{1}, Prob: 0.4},
		{Vals: []pdb.Value{2}, Prob: 0.6},
	}}, 0)
	p := Compile(&GroupLineage{Input: &Scan{Rel: b}})
	if p.Route != RouteLineage {
		t.Fatalf("route %v (%s), want lineage for BID events", p.Route, p.Why)
	}
	routedVsLineage(t, s, p)

	// But a BID block reduced to one alternative by a filter is an
	// independent event — safe again.
	p2 := Compile(&GroupLineage{Input: &Select{
		Input: &Scan{Rel: b},
		Pred:  func(v []pdb.Value) bool { return v[0] == 1 },
	}})
	if p2.Route != RouteSafe {
		t.Fatalf("route %v (%s), want safe for single surviving alternative", p2.Route, p2.Why)
	}
	routedVsLineage(t, s, p2)
}

func TestPlannerRefusesSelfJoin(t *testing.T) {
	s := formula.NewSpace()
	r, _ := tinyRelations(s)
	p := Compile(&GroupLineage{Input: &EquiJoin{
		Left: &Scan{Rel: r}, Right: &Scan{Rel: r}, LeftCol: 1, RightCol: 1,
	}})
	if p.Route != RouteLineage {
		t.Fatalf("route %v (%s), want lineage for self-join", p.Route, p.Why)
	}
	routedVsLineage(t, s, p)
}

func TestPlannerOpaquePredicatesForceLineage(t *testing.T) {
	s := formula.NewSpace()
	r, u := tinyRelations(s)
	p := Compile(&GroupLineage{Input: &ThetaJoin{
		Left: &Scan{Rel: r}, Right: &Scan{Rel: u},
		Pred: func(l, rv []pdb.Value) bool { return l[1] == rv[0] },
	}})
	if p.Route != RouteLineage {
		t.Fatalf("route %v (%s), want lineage for opaque predicate", p.Route, p.Why)
	}
	routedVsLineage(t, s, p)
}

func TestPlannerOptionsDisableRoutes(t *testing.T) {
	s := formula.NewSpace()
	r, u := tinyRelations(s)
	root := &GroupLineage{Input: &EquiJoin{
		Left: &Scan{Rel: r}, Right: &Scan{Rel: u}, LeftCol: 1, RightCol: 0,
	}}
	p := CompileWith(root, Options{DisableSafe: true})
	if p.Route != RouteLineage {
		t.Fatalf("route %v, want lineage with safe disabled", p.Route)
	}
	routedVsLineage(t, s, p)
}

func TestPlannerAnswersUsesEvaluatorOnLineageRoute(t *testing.T) {
	s := formula.NewSpace()
	r, _ := tinyRelations(s)
	p := CompileWith(&GroupLineage{Input: &Scan{Rel: r}, Cols: []int{1}},
		Options{DisableSafe: true, DisableIQ: true})
	got, err := p.Answers(context.Background(), s,
		engine.Approx{Eps: 1e-9, Kind: engine.Absolute})
	if err != nil {
		t.Fatal(err)
	}
	want := p.Lineage()
	if len(got) != len(want) {
		t.Fatalf("%d answers, want %d", len(got), len(want))
	}
	for i := range got {
		wp := exactP(s, want[i].Lin)
		if math.Abs(got[i].P-wp) > 1e-6 {
			t.Fatalf("answer %d: %v vs %v", i, got[i].P, wp)
		}
	}
}

// TestPlannerLineagePanicContained pins lineageSafe: a panic inside the
// lineage pipeline (here a caller-supplied predicate) fails that query
// alone with a *fault.PanicError, is counted once, and leaves the next
// query compiled with the same options healthy.
func TestPlannerLineagePanicContained(t *testing.T) {
	s := formula.NewSpace()
	r, _ := tinyRelations(s)
	m := obs.NewMetrics()
	opt := Options{DisableSafe: true, DisableIQ: true, Metrics: m}
	ctx := context.Background()

	bad := CompileWith(&GroupLineage{Input: &Select{
		Input: &Scan{Rel: r},
		Pred:  func([]pdb.Value) bool { panic("bad predicate") },
	}, Cols: []int{1}}, opt)
	got, err := bad.Answers(ctx, s, nil)
	var pe *fault.PanicError
	if !errors.As(err, &pe) || pe.Site != "plan.lineage" {
		t.Fatalf("err = %v, want a *fault.PanicError from plan.lineage", err)
	}
	if got != nil {
		t.Fatalf("answers %v alongside a contained panic", got)
	}
	if n := m.Snapshot().PanicsRecovered; n != 1 {
		t.Fatalf("PanicsRecovered = %d, want 1", n)
	}

	good := CompileWith(&GroupLineage{Input: &Scan{Rel: r}, Cols: []int{1}}, opt)
	if got, err := good.Answers(ctx, s, nil); err != nil || len(got) != 2 {
		t.Fatalf("healthy query after the panic: %d answers, err %v", len(got), err)
	}
	if n := m.Snapshot().PanicsRecovered; n != 1 {
		t.Fatalf("PanicsRecovered = %d after a healthy query, want 1", n)
	}
}

func TestPlannerNamesAndSchema(t *testing.T) {
	s := formula.NewSpace()
	r, u := tinyRelations(s)
	j := &EquiJoin{Left: &Scan{Rel: r}, Right: &Scan{Rel: u}, LeftCol: 1, RightCol: 0}
	if got := Name(j); got != "(R⋈T)" {
		t.Fatalf("name %q", got)
	}
	sch := Schema(j)
	if len(sch) != 4 || sch[0] != "R.a" || sch[3] != "T.c" {
		t.Fatalf("schema %v", sch)
	}
	if Width(j) != 4 {
		t.Fatalf("width %d", Width(j))
	}
	pr := &Project{Input: j, Cols: []int{3, 0}}
	if got := Schema(pr); got[0] != "T.c" || got[1] != "R.a" {
		t.Fatalf("project schema %v", got)
	}
	// The inspectors are total: a foreign node has no schema and no width.
	f := &foreign{Scan{Rel: r}}
	if got := Schema(f); got != nil {
		t.Fatalf("foreign node schema %v, want nil", got)
	}
	if Width(f) != 0 || Name(f) == "" {
		t.Fatalf("foreign node: width %d, name %q", Width(f), Name(f))
	}
}

// foreign satisfies Node by embedding an IR struct without being one.
type foreign struct{ Scan }

// TestPlannerRejectsMalformedTrees: the analysis walk is the IR's one
// validator. Every malformed shape compiles — without a panic — to a
// plan whose Err names the problem; Answers, StreamTraced and Lineage
// return it (or nothing) without running a route, so no panic is
// contained and none is counted.
func TestPlannerRejectsMalformedTrees(t *testing.T) {
	s := formula.NewSpace()
	r, u := tinyRelations(s)
	m := obs.NewMetrics()
	ctx := context.Background()
	join := func(l, r Node) *EquiJoin { return &EquiJoin{Left: l, Right: r, LeftCol: 1, RightCol: 0} }
	cases := []struct {
		name, why string
		root      Node
	}{
		{"nil-relation scan", "nil relation", &GroupLineage{Input: &Scan{}}},
		{"nil select input", "nil input", &GroupLineage{Input: &Select{Pred: func([]pdb.Value) bool { return true }}}},
		{"nil join side", "nil input", &GroupLineage{Input: join(scan(r), nil)}},
		{"nil select predicate", "without a predicate", &GroupLineage{Input: &Select{Input: scan(r)}}},
		{"nil group input", "nil input", &GroupLineage{Cols: []int{0}}},
		{"nil ranking input", "nil input", &TopK{K: 1}},
		{"equi-join column out of range", "EquiJoin right column 7", &EquiJoin{Left: scan(r), Right: scan(u), RightCol: 7}},
		{"negative equi-join column", "EquiJoin left column -1", &EquiJoin{Left: scan(r), Right: scan(u), LeftCol: -1}},
		{"less column out of range", "Less left column 2", &ThetaJoin{Left: scan(r), Right: scan(u), Less: &Less{LeftCol: 2}}},
		{"project column out of range", "Project column 4", &GroupLineage{Input: &Project{Input: scan(r), Cols: []int{0, 4}}}},
		{"group column out of range", "GroupLineage column 7", &GroupLineage{Input: join(scan(r), scan(u)), Cols: []int{7}}},
		{"conditionless theta join", "ThetaJoin without Less or Pred", &GroupLineage{Input: &ThetaJoin{Left: scan(r), Right: scan(u)}}},
		{"nested GroupLineage", "GroupLineage below", join(&GroupLineage{Input: scan(r), Cols: []int{0, 1}}, scan(u))},
		{"ranking below the root", "ranking node", &GroupLineage{Input: &Threshold{Input: scan(r), Tau: 0.5}}},
		{"stacked ranking roots", "ranking node", &TopK{Input: &TopK{Input: scan(r), K: 1}, K: 1}},
		{"non-positive K", "K must be positive", &TopK{Input: &GroupLineage{Input: scan(r), Cols: []int{0}}, K: 0}},
		{"NaN tau", "Tau must be a probability in [0, 1], got NaN", &Threshold{Input: &GroupLineage{Input: scan(r), Cols: []int{0}}, Tau: math.NaN()}},
		{"tau above one", "Tau must be a probability in [0, 1], got 1.5", &Threshold{Input: &GroupLineage{Input: scan(r), Cols: []int{0}}, Tau: 1.5}},
		{"negative tau", "Tau must be a probability in [0, 1], got -0.25", &Threshold{Input: &GroupLineage{Input: scan(r), Cols: []int{0}}, Tau: -0.25}},
		{"unknown node type", "unknown node type", &GroupLineage{Input: &foreign{Scan{Rel: r}}}},
	}
	for _, c := range cases {
		p := CompileWith(c.root, Options{Metrics: m})
		if err := p.Err(); err == nil || !strings.Contains(err.Error(), c.why) {
			t.Fatalf("%s: Err() = %v, want one naming %q", c.name, err, c.why)
		}
		if !strings.Contains(p.Explain(), "invalid plan") {
			t.Errorf("%s: Explain() = %q", c.name, p.Explain())
		}
		got, err := p.Answers(ctx, s, nil)
		var pe *fault.PanicError
		if err != p.Err() || errors.As(err, &pe) || got != nil {
			t.Fatalf("%s: Answers = %d answers, %v; want the plan's error %v", c.name, len(got), err, p.Err())
		}
		streamed, err := drain(t, p, ctx, s)
		if err != p.Err() || len(streamed) != 0 {
			t.Fatalf("%s: StreamTraced = %d answers, %v; want the plan's error", c.name, len(streamed), err)
		}
		if p.Lineage() != nil || Lineage(c.root) != nil {
			t.Fatalf("%s: lineage materialized for an invalid plan", c.name)
		}
	}
	if n := m.Snapshot().PanicsRecovered; n != 0 {
		t.Fatalf("PanicsRecovered = %d, want 0: malformed trees must fail at compile", n)
	}
}

// TestPlanRelations: Relations lists every scan in tree order, a
// self-join's relation twice.
func TestPlanRelations(t *testing.T) {
	s := formula.NewSpace()
	r, u := tinyRelations(s)
	p := Compile(&TopK{Input: &GroupLineage{Input: &EquiJoin{
		Left:  &EquiJoin{Left: scan(r), Right: sel(scan(u), func([]pdb.Value) bool { return true }), LeftCol: 1, RightCol: 0},
		Right: scan(r), LeftCol: 0, RightCol: 0,
	}}, K: 1})
	if got := p.Relations(); !slices.Equal(got, []*pdb.Relation{r, u, r}) {
		t.Fatalf("Relations() = %v, want R, T, R", got)
	}
}

// exactP is P(d) by exact d-tree compilation.
func exactP(s *formula.Space, d formula.DNF) float64 {
	res, err := core.ExactCtx(context.Background(), s, d, core.Options{})
	if err != nil {
		panic(err)
	}
	return res.Estimate
}
