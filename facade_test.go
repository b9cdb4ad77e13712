package repro_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/formula"
	"repro/internal/pdb"
	"repro/internal/plan"
	"repro/internal/rank"
	"repro/internal/workpool"
)

// facadeWorkload hand-builds a one-relation workload whose GroupLineage
// answers mimic internal/rank's randdnf.Answers fixture: nAnswers answers
// over one shared pool of Boolean variables, each answer the union of a
// skewed number of width-3 clauses — the regime where anytime top-k
// pruning (and therefore streaming) pays.
func facadeWorkload(nAnswers int) (*formula.Space, *pdb.Relation) {
	s := formula.NewSpace()
	vars := make([]formula.Var, 4*nAnswers)
	for i := range vars {
		vars[i] = s.AddBool(0.02 + 0.25*float64(i%11)/11)
	}
	rel := &pdb.Relation{Name: "answers", Cols: []string{"id"}}
	for i := 0; i < nAnswers; i++ {
		clauses := 12 + i%16
		for j := 0; j < clauses; j++ {
			a := vars[(4*i+j)%len(vars)]
			b := vars[(4*i+3*j+1)%len(vars)]
			c := vars[(7*i+j+2)%len(vars)]
			if cl, ok := formula.NewClause(formula.Pos(a), formula.Pos(b), formula.Pos(c)); ok {
				rel.Tups = append(rel.Tups, pdb.Tuple{Vals: []pdb.Value{pdb.Value(i)}, Lin: cl})
			}
		}
	}
	return s, rel
}

// smallDB is a two-relation TI database with known exact answer
// confidences, for lifecycle and concurrency tests.
func smallDB(t testing.TB) *repro.DB {
	t.Helper()
	s := formula.NewSpace()
	r := pdb.NewTupleIndependent(s, "R", []string{"a", "b"},
		[][]pdb.Value{{1, 10}, {2, 10}, {2, 20}, {3, 30}},
		[]float64{0.9, 0.5, 0.4, 0.8}, 1)
	u := pdb.NewTupleIndependent(s, "S", []string{"b", "c"},
		[][]pdb.Value{{10, 7}, {20, 7}, {30, 9}},
		[]float64{0.6, 0.3, 0.7}, 2)
	return repro.NewDB(s, r, u)
}

// TestFacadeLifecycle drives DB → Session → Query → stream end to end
// and cross-checks the façade's answers against the direct internal
// path (plan.Compile + Plan.Answers) on the same IR.
func TestFacadeLifecycle(t *testing.T) {
	db := smallDB(t)
	sess := db.Session()
	ctx := context.Background()

	q := sess.Query("R").Join(sess.Query("S"), 1, 0).GroupLineage(3)
	if sch := q.Schema(); len(sch) != 1 {
		t.Fatalf("Schema() = %v, want one grouped column", sch)
	}
	got, err := q.All(ctx)
	if err != nil {
		t.Fatal(err)
	}

	rel, _ := db.Relation("R")
	other, _ := db.Relation("S")
	root := &plan.GroupLineage{
		Input: &plan.EquiJoin{Left: &plan.Scan{Rel: rel}, Right: &plan.Scan{Rel: other}, LeftCol: 1, RightCol: 0},
		Cols:  []int{3},
	}
	want, err := plan.Compile(root).Answers(ctx, db.Space(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("façade returned %d answers, direct path %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Vals[0] != want[i].Vals[0] || math.Abs(got[i].P-want[i].P) > 1e-12 {
			t.Fatalf("answer %d: façade %v/%v, direct %v/%v",
				i, got[i].Vals, got[i].P, want[i].Vals, want[i].P)
		}
	}

	// The same query prepared once and explained.
	pr, err := sess.Query("R").Join(sess.Query("S"), 1, 0).GroupLineage(3).Build()
	if err != nil {
		t.Fatal(err)
	}
	if pr.Explain() == "" || pr.Plan() == nil {
		t.Fatal("Prepared lost its plan")
	}
}

// TestFacadeBuildValidation exercises the builder's uniform error
// surface: every misuse is reported at Build as a *BuildError naming
// the offending call, and never panics or leaks into the planner.
func TestFacadeBuildValidation(t *testing.T) {
	db := smallDB(t)
	sess := db.Session()
	other := repro.NewDB(db.Space()).Session()
	unregistered := &pdb.Relation{Name: "ghost", Cols: []string{"x"}}

	cases := []struct {
		name string
		q    *repro.Query
		op   string
	}{
		{"unknown relation name", sess.Query("nope"), "Query"},
		{"unregistered relation", sess.Query(unregistered), "Query"},
		{"nil source", sess.Query(nil), "Query"},
		{"unsupported source", sess.Query(42), "Query"},
		{"nested rank in adopted IR", sess.Query(plan.Node(&plan.GroupLineage{
			Input: &plan.TopK{Input: mustScan(t, db, "R"), K: 2},
		})), "Query"},
		{"nested group in adopted IR", sess.Query(plan.Node(&plan.EquiJoin{
			Left:  &plan.GroupLineage{Input: mustScan(t, db, "R"), Cols: []int{0}},
			Right: mustScan(t, db, "S"),
		})), "Query"},
		{"adopted IR with unregistered scan", sess.Query(plan.Node(&plan.Scan{Rel: unregistered})), "Query"},
		{"adopted IR with nil-relation scan", sess.Query(plan.Node(&plan.Scan{})), "Query"},
		{"adopted IR with group column out of range", sess.Query(plan.Node(&plan.GroupLineage{
			Input: mustScan(t, db, "R"), Cols: []int{7},
		})), "Query"},
		{"adopted IR with join column out of range", sess.Query(plan.Node(&plan.EquiJoin{
			Left: mustScan(t, db, "R"), Right: mustScan(t, db, "S"), LeftCol: 7,
		})), "Query"},
		{"adopted IR with projection out of range", sess.Query(plan.Node(&plan.Project{
			Input: mustScan(t, db, "R"), Cols: []int{0, 9},
		})), "Query"},
		{"adopted IR with nil select predicate", sess.Query(plan.Node(&plan.Select{Input: mustScan(t, db, "R")})), "Query"},
		{"adopted IR with conditionless theta join", sess.Query(plan.Node(&plan.ThetaJoin{
			Left: mustScan(t, db, "R"), Right: mustScan(t, db, "S"),
		})), "Query"},
		{"adopted IR with foreign node", sess.Query(plan.Node(&foreignNode{})), "Query"},
		{"adopted IR with NaN tau", sess.Query(plan.Node(&plan.Threshold{
			Input: &plan.GroupLineage{Input: mustScan(t, db, "R"), Cols: []int{0}}, Tau: math.NaN(),
		})), "Query"},
		{"adopted IR with tau above one", sess.Query(plan.Node(&plan.Threshold{
			Input: &plan.GroupLineage{Input: mustScan(t, db, "R"), Cols: []int{0}}, Tau: 1.5,
		})), "Query"},
		{"adopted IR with negative tau", sess.Query(plan.Node(&plan.Threshold{
			Input: &plan.GroupLineage{Input: mustScan(t, db, "R"), Cols: []int{0}}, Tau: -0.25,
		})), "Query"},
		{"nil select predicate", sess.Query("R").Select(nil), "Select"},
		{"nil join predicate", sess.Query("R").JoinPred(sess.Query("S"), nil), "JoinPred"},
		{"empty projection", sess.Query("R").Project(), "Project"},
		{"projection out of range", sess.Query("R").Project(5), "Project"},
		{"group column out of range", sess.Query("R").GroupLineage(9), "GroupLineage"},
		{"join nil operand", sess.Query("R").Join(nil, 0, 0), "Join"},
		{"join across sessions", sess.Query("R").Join(other.Query(unregistered), 0, 0), "Join"},
		{"join column out of range", sess.Query("R").Join(sess.Query("S"), 7, 0), "Join"},
		{"join a grouped query", sess.Query("R").Join(sess.Query("S").GroupLineage(0), 0, 0), "Join"},
		{"nonpositive k", sess.Query("R").GroupLineage(0).TopK(0), "TopK"},
		{"duplicate ranking", sess.Query("R").GroupLineage(0).TopK(2).Threshold(0.5), "Threshold"},
		{"tau out of range", sess.Query("R").GroupLineage(0).Threshold(1.5), "Threshold"},
		{"operator after ranking", sess.Query("R").TopK(2).Project(0), "Project"},
		{"operator after grouping", sess.Query("R").GroupLineage(0).Select(func([]pdb.Value) bool { return true }), "Select"},
		{"session eps at one or above", db.Session(repro.WithEps(1.5)).Query("R"), "Session"},
		{"negative session eps", db.Session(repro.WithEps(-1)).Query("R"), "Session"},
		{"NaN session eps", db.Session(repro.WithEps(math.NaN())).Query("R"), "Session"},
		{"infinite session eps", db.Session(repro.WithEps(math.Inf(1))).Query("R"), "Session"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_ = c.q.Schema() // runs on adopted IR before Build validates it: must not panic
			_, err := c.q.Build()
			if err == nil {
				t.Fatal("Build succeeded, want BuildError")
			}
			var be *repro.BuildError
			if !errors.As(err, &be) {
				t.Fatalf("error %v is not a *BuildError", err)
			}
			if be.Op != c.op {
				t.Fatalf("BuildError.Op = %q (%v), want %q", be.Op, err, c.op)
			}
			// Run must surface the same failure through the stream.
			if _, runErr := repro.Collect(c.q.Run(context.Background())); runErr == nil {
				t.Fatal("Run yielded no error for an invalid query")
			}
		})
	}
}

// TestFacadeAdoptsCanonicalRankedIR pins that the shapes plan.Compile
// accepts are adoptable: a TopK/Threshold root directly over a
// GroupLineage (the way the catalog and the pre-façade examples built
// ranked queries) must build and run.
func TestFacadeAdoptsCanonicalRankedIR(t *testing.T) {
	db := smallDB(t)
	sess := db.Session()
	inner := &plan.GroupLineage{
		Input: &plan.EquiJoin{
			Left: mustScan(t, db, "R"), Right: mustScan(t, db, "S"),
			LeftCol: 1, RightCol: 0,
		},
		Cols: []int{3},
	}
	for _, root := range []plan.Node{
		&plan.TopK{Input: inner, K: 1},
		&plan.Threshold{Input: inner, Tau: 0.1},
	} {
		got, err := sess.Query(root).All(context.Background())
		if err != nil {
			t.Fatalf("canonical ranked IR %T rejected: %v", root, err)
		}
		if len(got) == 0 {
			t.Fatalf("canonical ranked IR %T returned no answers", root)
		}
	}
}

// foreignNode satisfies plan.Node by embedding an IR struct without
// being one: the planner must reject it, and the inspectors must not
// panic on it.
type foreignNode struct{ plan.Scan }

// TestFacadeJoinPredMatchesJoinLess: an opaque predicate stating the
// structured inequality returns what JoinLess returns — same values,
// same order, bitwise the same exact confidences — on the d-tree route.
func TestFacadeJoinPredMatchesJoinLess(t *testing.T) {
	db := smallDB(t)
	sess := db.Session(repro.WithEps(0))
	ctx := context.Background()
	pred := sess.Query("R").JoinPred(sess.Query("S"), func(lv, rv []pdb.Value) bool { return lv[1] < rv[0] }).GroupLineage(0)
	less := sess.Query("R").JoinLess(sess.Query("S"), 1, 0).GroupLineage(0)

	explain, err := pred.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(explain, "route=d-tree") {
		t.Fatalf("JoinPred query explained %q, want the d-tree route", explain)
	}
	got, err := pred.All(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := less.All(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("JoinPred %d answers, JoinLess %d", len(got), len(want))
	}
	for i := range got {
		if !slices.Equal(got[i].Vals, want[i].Vals) || math.Float64bits(got[i].P) != math.Float64bits(want[i].P) {
			t.Fatalf("answer %d: JoinPred %v P=%v, JoinLess %v P=%v", i, got[i].Vals, got[i].P, want[i].Vals, want[i].P)
		}
	}
}

// TestDBRelationsRegistrationOrder: Relations lists names in
// registration order; re-registering the identical relation is a no-op.
func TestDBRelationsRegistrationOrder(t *testing.T) {
	db := smallDB(t)
	r, _ := db.Relation("R")
	w := pdb.NewDeterministic("W", []string{"x"}, [][]pdb.Value{{1}})
	db.Register(r, w)
	db.Register(w)
	if got := db.Relations(); !slices.Equal(got, []string{"R", "S", "W"}) {
		t.Fatalf("Relations() = %v, want [R S W]", got)
	}
}

func mustScan(t *testing.T, db *repro.DB, name string) plan.Node {
	t.Helper()
	rel, ok := db.Relation(name)
	if !ok {
		t.Fatalf("relation %q not registered", name)
	}
	return &plan.Scan{Rel: rel}
}

// TestFacadeStreamingSavesWork proves Run's iterator is genuinely
// anytime: consuming only the first proven answer of a top-k query and
// breaking out of the loop must cost measurably less evaluation work
// (fragment-cache misses, i.e. leaf preparations performed) than
// draining the stream — impossible if answers were materialized before
// the first yield.
func TestFacadeStreamingSavesWork(t *testing.T) {
	s, rel := facadeWorkload(120)
	db := repro.NewDB(s, rel)

	run := func(breakEarly bool) (answers int, misses int64) {
		sess := db.Session(repro.WithEps(1e-6), repro.WithForceLineage())
		for a, err := range sess.Query("answers").GroupLineage(0).TopK(10).Run(context.Background()) {
			if err != nil {
				t.Fatal(err)
			}
			_ = a
			answers++
			if breakEarly {
				break
			}
		}
		misses = sess.FragCache().CacheStats().Misses
		return answers, misses
	}

	full, fullMisses := run(false)
	early, earlyMisses := run(true)
	if full != 10 {
		t.Fatalf("full stream yielded %d answers, want 10", full)
	}
	if early != 1 {
		t.Fatalf("early-break stream yielded %d answers, want 1", early)
	}
	if earlyMisses >= fullMisses {
		t.Fatalf("breaking after the first answer cost %d leaf preparations, full stream %d — the stream is not anytime",
			earlyMisses, fullMisses)
	}
	t.Logf("first answer after %d leaf preparations; full top-10 run %d", earlyMisses, fullMisses)
}

// TestFacadeStreamMatchesAll pins the stream's contents against the
// materialized path: same selected answers, same estimates, only the
// delivery order may differ (proof order vs rank order).
func TestFacadeStreamMatchesAll(t *testing.T) {
	s, rel := facadeWorkload(60)
	db := repro.NewDB(s, rel)
	sess := db.Session(repro.WithEps(1e-6), repro.WithForceLineage())
	ctx := context.Background()

	streamed, err := repro.Collect(sess.Query("answers").GroupLineage(0).TopK(7).Run(ctx))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := sess.Query("answers").GroupLineage(0).TopK(7).All(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != 7 || len(batch) != 7 {
		t.Fatalf("streamed %d, batch %d answers, want 7", len(streamed), len(batch))
	}
	got := map[pdb.Value]float64{}
	for _, a := range streamed {
		got[a.Vals[0]] = a.P
	}
	for _, a := range batch {
		p, ok := got[a.Vals[0]]
		if !ok {
			t.Fatalf("batch answer %v missing from stream (stream %v)", a.Vals, streamed)
		}
		if math.Abs(p-a.P) > 1e-9 {
			t.Fatalf("answer %v: streamed P %v, batch P %v", a.Vals, p, a.P)
		}
	}
}

// TestFacadeFirst pins First on the three shapes a stream takes: a
// ranked lineage stream gives the answer it yields first, an empty one
// ok false, and one whose first element is an error (a build failure)
// that error.
func TestFacadeFirst(t *testing.T) {
	s, rel := facadeWorkload(60)
	sess := repro.NewDB(s, rel).Session(repro.WithEps(1e-6), repro.WithForceLineage())
	ctx := context.Background()
	ranked := sess.Query("answers").GroupLineage(0).TopK(7)
	all, err := repro.Collect(ranked.Run(ctx))
	a, ok, ferr := repro.First(ranked.Run(ctx))
	if err != nil || ferr != nil || !ok || a.Vals[0] != all[0].Vals[0] || a.P != all[0].P || a.Res != all[0].Res {
		t.Fatalf("First gave %+v (ok %v, %v), the stream's first answer is %+v (%v)", a, ok, ferr, all[0], err)
	}
	none := sess.Query("answers").Select(func([]pdb.Value) bool { return false }).GroupLineage(0).TopK(7)
	if a, ok, err := repro.First(none.Run(ctx)); ok || err != nil || a.Vals != nil {
		t.Fatalf("empty stream: %v, ok %v, err %v", a.Vals, ok, err)
	}
	if a, ok, err := repro.First(sess.Query("no_such_relation").Run(ctx)); ok || !errors.As(err, new(*repro.BuildError)) || a.Vals != nil {
		t.Fatalf("failing stream: %v, ok %v, err %v; want a BuildError", a.Vals, ok, err)
	}
}

// TestFacadeRankedAnswersCarryNodes pins Res.Nodes on the ranked route:
// every answer of a lineage-route TopK, streamed or cut by its estimate,
// carries the node count of a fresh Refiner stepped as far as the
// scheduler stepped that answer.
func TestFacadeRankedAnswersCarryNodes(t *testing.T) {
	const k, eps = 10, 1e-3
	s, rel := facadeWorkload(60)
	ctx := context.Background()
	got, err := repro.Collect(repro.NewDB(s, rel).Session(repro.WithEps(eps), repro.WithForceLineage()).
		Query("answers").GroupLineage(0).TopK(k).Run(ctx))
	lineage := plan.Lineage(&plan.GroupLineage{Input: &plan.Scan{Rel: rel}, Cols: []int{0}})
	res, rerr := rank.TopK(ctx, s, pdb.Lineages(lineage), k, rank.Options{Eps: eps}, nil)
	if err != nil || rerr != nil || len(got) != k {
		t.Fatalf("%d answers: %v, %v", len(got), err, rerr)
	}
	refined := 0
	for _, a := range got {
		i := slices.IndexFunc(lineage, func(l pdb.Answer) bool { return l.Vals[0] == a.Vals[0] })
		it, r := res.Items[i], core.NewRefiner(ctx, s, lineage[i].Lin, core.Options{Eps: eps})
		if it.Steps > 0 {
			r.Step(it.Steps)
			refined++
		}
		if want := r.Result().Nodes; a.Res.Nodes < 1 || a.Res.Nodes != want {
			t.Errorf("answer %v (%d steps): Res.Nodes %d, its refiner's %d", a.Vals, it.Steps, a.Res.Nodes, want)
		}
	}
	if refined == 0 {
		t.Fatal("no answer needed a refinement step: only prepared roots were checked")
	}
}

// TestFacadeStreamCancellation cancels the context mid-stream and
// requires a partial, error-carrying iterator: a proven prefix,
// followed by a final context.Canceled element.
func TestFacadeStreamCancellation(t *testing.T) {
	s, rel := facadeWorkload(120)
	db := repro.NewDB(s, rel)
	sess := db.Session(repro.WithEps(1e-6), repro.WithForceLineage())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var answers int
	var finalErr error
	for a, err := range sess.Query("answers").GroupLineage(0).TopK(10).Run(ctx) {
		if err != nil {
			finalErr = err
			continue
		}
		_ = a
		answers++
		cancel() // cancel after the first proven answer, keep iterating
	}
	if answers == 0 {
		t.Fatal("cancelled stream yielded no answers at all, want a partial prefix")
	}
	if !errors.Is(finalErr, context.Canceled) {
		t.Fatalf("stream ended with %v, want context.Canceled", finalErr)
	}
}

// TestFacadeSessionsConcurrent runs N goroutines over one DB — some on
// private sessions, some sharing one cache across sessions — under the
// race detector, and checks every result against a single-threaded
// baseline.
func TestFacadeSessionsConcurrent(t *testing.T) {
	db := smallDB(t)
	ctx := context.Background()

	baselineSess := db.Session()
	baseline, err := baselineSess.Query("R").Join(baselineSess.Query("S"), 1, 0).GroupLineage(3).All(ctx)
	if err != nil {
		t.Fatal(err)
	}

	s2, rel2 := facadeWorkload(40)
	rankDB := repro.NewDB(s2, rel2)
	rankBaseSess := rankDB.Session(repro.WithEps(1e-6), repro.WithForceLineage())
	rankBaseline, err := rankBaseSess.Query("answers").GroupLineage(0).TopK(5).All(ctx)
	if err != nil {
		t.Fatal(err)
	}

	shared := repro.NewFragCache(0)
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			opts := []repro.SessionOption{}
			if w%2 == 0 {
				opts = append(opts, repro.WithSharedFragCache(shared))
			}
			sess := db.Session(opts...)
			got, err := sess.Query("R").Join(sess.Query("S"), 1, 0).GroupLineage(3).All(ctx)
			if err != nil {
				errs <- fmt.Errorf("worker %d: %w", w, err)
				return
			}
			if len(got) != len(baseline) {
				errs <- fmt.Errorf("worker %d: %d answers, want %d", w, len(got), len(baseline))
				return
			}
			for i := range got {
				if got[i].Vals[0] != baseline[i].Vals[0] || math.Abs(got[i].P-baseline[i].P) > 1e-12 {
					errs <- fmt.Errorf("worker %d: answer %d diverged", w, i)
					return
				}
			}

			rsess := rankDB.Session(repro.WithEps(1e-6), repro.WithForceLineage())
			top, err := rsess.Query("answers").GroupLineage(0).TopK(5).All(ctx)
			if err != nil {
				errs <- fmt.Errorf("worker %d topk: %w", w, err)
				return
			}
			if len(top) != len(rankBaseline) {
				errs <- fmt.Errorf("worker %d topk: %d answers, want %d", w, len(top), len(rankBaseline))
				return
			}
			for i := range top {
				if top[i].Vals[0] != rankBaseline[i].Vals[0] {
					errs <- fmt.Errorf("worker %d topk: rank %d is %v, want %v",
						w, i, top[i].Vals, rankBaseline[i].Vals)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestFacadeEvaluatorOptions pins the session evaluator derivation:
// WithEps yields the ε-approximation carrying the session cache,
// WithEvaluator wins verbatim, and the default is exact. What the
// budget does to each answer is TestSessionBudgetBitesEveryAnswer's.
func TestFacadeEvaluatorOptions(t *testing.T) {
	db := smallDB(t)

	if ap, ok := db.Session().Evaluator().(engine.Approx); !ok || ap.Eps != 0 {
		t.Fatalf("default evaluator %+v, want exact engine.Approx (Eps 0)", db.Session().Evaluator())
	}

	sess := db.Session(repro.WithEps(0.01))
	ap, ok := sess.Evaluator().(engine.Approx)
	if !ok {
		t.Fatalf("WithEps evaluator %T, want engine.Approx", sess.Evaluator())
	}
	if ap.Eps != 0.01 || ap.Frags != sess.FragCache() {
		t.Fatalf("derived Approx %+v does not carry the session knobs", ap)
	}
	// At Eps 0 exact evaluation memoizes in the same session cache.
	sess = db.Session()
	if ex := sess.Evaluator().(engine.Approx); ex.Eps != 0 || ex.Frags != sess.FragCache() {
		t.Fatalf("derived exact Approx %+v does not carry the session knobs", ex)
	}

	custom := engine.MonteCarlo{Eps: 0.1, Delta: 0.01}
	if ev := db.Session(repro.WithEvaluator(custom)).Evaluator(); ev != custom {
		t.Fatalf("WithEvaluator returned %v, want the installed evaluator", ev)
	}
}

// gridDB is a grouped complete-bipartite workload: gx ⋈ gedge ⋈ gy
// grouped by gedge's group id yields one 6×6 grid formula
// x_i ∧ e_ij ∧ y_j per group. The grids are not read-once, so every
// answer needs d-tree refinement beyond its prepared bounds.
func gridDB() *repro.DB {
	s := formula.NewSpace()
	var vr, er [][]pdb.Value
	var vp, ep []float64
	for i := 0; i < 6; i++ {
		vr = append(vr, []pdb.Value{pdb.Value(i)})
		vp = append(vp, 0.5)
	}
	for g := 0; g < 3; g++ {
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				er = append(er, []pdb.Value{pdb.Value(i), pdb.Value(j), pdb.Value(g)})
				ep = append(ep, 0.04+0.05*float64(g))
			}
		}
	}
	gx := pdb.NewTupleIndependent(s, "gx", []string{"i"}, vr, vp, 1)
	gy := pdb.NewTupleIndependent(s, "gy", []string{"j"}, vr, vp, 2)
	gedge := pdb.NewTupleIndependent(s, "gedge", []string{"i", "j", "g"}, er, ep, 3)
	return repro.NewDB(s, gx, gy, gedge)
}

// TestSessionBudgetBitesEveryAnswer pins WithBudget's per-answer limits
// on both lineage paths. Under a tiny MaxNodes every unranked answer
// fails with ErrBudget, the ranked query still returns its answers (an
// answer whose refiner is spent is cut by its estimate), and the
// registry counts the exhaustions of both. With no budget both queries
// converge and the counter stays 0.
func TestSessionBudgetBitesEveryAnswer(t *testing.T) {
	ctx := context.Background()
	for _, budget := range []repro.Budget{{}, {MaxNodes: 3}} {
		bites := budget.MaxNodes > 0
		for _, ranked := range []bool{false, true} {
			db := gridDB()
			sess := db.Session(repro.WithForceLineage(), repro.WithEps(1e-3), repro.WithBudget(budget))
			q := sess.Query("gx").Join(sess.Query("gedge"), 0, 0).Join(sess.Query("gy"), 2, 0).GroupLineage(3)
			if ranked {
				q = q.TopK(2)
			}
			answers, err := q.All(ctx)
			exhausted := db.Snapshot().BudgetExhausted
			label := fmt.Sprintf("budget %+v ranked %v", budget, ranked)
			switch {
			case !bites:
				if err != nil || exhausted != 0 {
					t.Fatalf("%s: err %v, %d budget exhaustions, want neither", label, err, exhausted)
				}
				for _, a := range answers {
					if !ranked && !a.Res.Converged {
						t.Fatalf("%s: answer %v did not converge: %+v", label, a.Vals, a.Res)
					}
				}
			case ranked:
				if err != nil || len(answers) != 2 {
					t.Fatalf("%s: %d answers, err %v, want 2 and no error", label, len(answers), err)
				}
				if exhausted == 0 {
					t.Fatalf("%s: the budget never bit a refiner", label)
				}
			default:
				if !errors.Is(err, engine.ErrBudget) {
					t.Fatalf("%s: err %v, want ErrBudget", label, err)
				}
				for _, a := range answers {
					if !errors.Is(a.Err, engine.ErrBudget) {
						t.Fatalf("%s: answer %v err %v, want ErrBudget", label, a.Vals, a.Err)
					}
				}
				if exhausted != int64(len(answers)) {
					t.Fatalf("%s: %d budget exhaustions for %d answers", label, exhausted, len(answers))
				}
			}
			if len(answers) == 0 {
				t.Fatalf("%s: no answers", label)
			}
		}
	}
}

// TestSessionTimeoutBoundsWholeQuery pins WithBudget's Timeout as one
// deadline per query, not per answer: with every answer's evaluation
// slowed by 2 ms (the eval.step latency fault) on a one-worker pool, a
// 100-answer query needs ≥ 200 ms, so a 20 ms Timeout must stop it
// with context.DeadlineExceeded within a few Timeouts — the unranked
// batch path and the ranked anytime stream alike.
func TestSessionTimeoutBoundsWholeQuery(t *testing.T) {
	const answers, timeout = 100, 20 * time.Millisecond
	s, rel := facadeWorkload(answers)
	db := repro.NewDB(s, rel)
	db.Pool().Resize(1)
	session := func() *repro.Session {
		inj := repro.NewFaultInjector(1)
		inj.Configure(fault.SiteEvalStep, repro.FaultSiteConfig{Latency: 1, LatencyDur: 2 * time.Millisecond})
		return db.Session(repro.WithForceLineage(), repro.WithInjector(inj),
			repro.WithBudget(repro.Budget{Timeout: timeout}))
	}
	check := func(t *testing.T, n int, err error, elapsed time.Duration) {
		t.Helper()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%d answers, err %v after %v; want context.DeadlineExceeded", n, err, elapsed)
		}
		if elapsed > 5*timeout {
			t.Fatalf("query ran %v under a %v Timeout", elapsed, timeout)
		}
	}

	t.Run("unranked", func(t *testing.T) {
		start := time.Now()
		got, err := session().Query("answers").GroupLineage(0).All(context.Background())
		check(t, len(got), err, time.Since(start))
	})

	t.Run("ranked stream", func(t *testing.T) {
		start := time.Now()
		var n int
		var finalErr error
		for _, err := range session().Query("answers").GroupLineage(0).TopK(10).Run(context.Background()) {
			if finalErr != nil {
				t.Fatalf("stream yielded past its error %v", finalErr)
			}
			if err != nil {
				finalErr = err
				continue
			}
			n++
		}
		check(t, n, finalErr, time.Since(start))
	})
}

// TestSessionTimeoutIsOneTimer pins WithBudget's Timeout as the only
// timer under a façade query: a query with a Timeout allocates a
// constant more than the same query without one — the query's deadline
// — however many answers it evaluates, ranked or not. Each answer's
// evaluation used to derive a deadline context of its own from the same
// budget (207 more allocations at 100 answers than without a Timeout,
// 27 at 10), and a ranked run one more for its scheduler.
func TestSessionTimeoutIsOneTimer(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	extra := func(answers, k int) float64 {
		s, rel := facadeWorkload(answers)
		db := repro.NewDB(s, rel)
		db.Pool().Resize(1)
		allocs := func(b repro.Budget) float64 {
			q := db.Session(repro.WithForceLineage(), repro.WithEps(0.01), repro.WithBudget(b)).
				Query("answers").GroupLineage(0)
			if k > 0 {
				q = q.TopK(k)
			}
			run := func() {
				if _, err := q.All(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the session's fragment cache
			return testing.AllocsPerRun(20, run)
		}
		return allocs(repro.Budget{Timeout: time.Hour}) - allocs(repro.Budget{})
	}
	few, many, ranked := extra(10, 0), extra(100, 0), extra(100, 3)
	if many != few || ranked != few || few > 4 {
		t.Fatalf("a Timeout adds %v allocations at 10 answers, %v at 100 and %v to a top-3 of 100; want one small constant",
			few, many, ranked)
	}
}

// TestDBPartitionPoolIsolation pins per-DB pools: sizing one DB's pool
// must leave other DBs and the process-wide default pool untouched.
func TestDBPartitionPoolIsolation(t *testing.T) {
	a := smallDB(t)
	b := smallDB(t)
	was := b.Parallelism()
	def := workpool.Default.Parallelism()

	a.Pool().Resize(1)
	if got := a.Parallelism(); got != 1 {
		t.Fatalf("a.Parallelism() = %d after Pool().Resize(1)", got)
	}
	if got := b.Parallelism(); got != was {
		t.Fatalf("resizing DB a changed DB b's pool: %d, want %d", got, was)
	}
	if got := workpool.Default.Parallelism(); got != def {
		t.Fatalf("resizing DB a changed the default pool: %d, want %d", got, def)
	}

	a.Pool().Resize(3)
	if got := a.Parallelism(); got != 3 {
		t.Fatalf("Pool().Resize(3) then Parallelism() = %d", got)
	}
}

// FuzzAdoptedIRNeverPanics drives the façade's IR entry point with
// decoded trees over two registered relations and one unregistered:
// Build either returns a *BuildError, or a Prepared whose All answers
// without error and without a contained panic.
func FuzzAdoptedIRNeverPanics(f *testing.F) {
	db := smallDB(f)
	sess := db.Session(repro.WithEps(0.01))
	r, _ := db.Relation("R")
	s, _ := db.Relation("S")
	rels := []*pdb.Relation{r, s, {Name: "ghost", Cols: []string{"x"}}, nil}
	f.Fuzz(func(t *testing.T, data []byte) {
		root := (&irDecoder{data: data, rels: rels}).node(0)
		q := sess.Query(root)
		_ = q.Schema()
		pr, err := q.Build()
		if err != nil {
			if be := new(repro.BuildError); !errors.As(err, &be) {
				t.Fatalf("Build error %v is not a *BuildError", err)
			}
			return
		}
		if th, ok := root.(*plan.Threshold); ok && !(th.Tau >= 0 && th.Tau <= 1) {
			t.Fatalf("%s: Build accepted Threshold tau %v", pr.Explain(), th.Tau)
		}
		if _, err := pr.All(context.Background()); err != nil {
			t.Fatalf("%s: All: %v", pr.Explain(), err)
		}
		if n := db.Snapshot().PanicsRecovered; n != 0 {
			t.Fatalf("%s: PanicsRecovered = %d", pr.Explain(), n)
		}
	})
}

// irDecoder reads a plan tree, one kind byte per node (mod 9: nil,
// Scan, Select, EquiJoin, ThetaJoin, Project, GroupLineage, TopK,
// Threshold; always a Scan below depth 4), children first, then the
// node's parameters. A Scan's byte picks R, S, the unregistered ghost
// or a nil relation; a Threshold's byte b decodes to b/250 (above 1
// past 250) or, at 255, NaN; a column byte decodes to [-2, 6); a column list
// is a count byte (mod 4) and that many columns; an optional predicate
// or residual is present when its byte is odd, a Less when its byte is
// odd. Predicates bounds-check, so a run never panics in caller code.
type irDecoder struct {
	data []byte
	rels []*pdb.Relation
}

func (d *irDecoder) next() int {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return int(b)
}

func (d *irDecoder) col() int { return d.next()%8 - 2 }

func (d *irDecoder) cols() []int {
	cols := make([]int, d.next()%4)
	for i := range cols {
		cols[i] = d.col()
	}
	return cols
}

func (d *irDecoder) node(depth int) plan.Node {
	kind := d.next() % 9
	if depth > 4 {
		kind = 1
	}
	switch kind {
	case 1:
		return &plan.Scan{Rel: d.rels[d.next()%len(d.rels)]}
	case 2:
		n := &plan.Select{Input: d.node(depth + 1)}
		if b := d.next(); b%2 == 1 {
			c := b / 2 % 4
			n.Pred = func(v []pdb.Value) bool { return c < len(v) && v[c] >= 10 }
		}
		return n
	case 3:
		n := &plan.EquiJoin{Left: d.node(depth + 1), Right: d.node(depth + 1), LeftCol: d.col(), RightCol: d.col()}
		if d.next()%2 == 1 {
			n.On = func(l, r []pdb.Value) bool { return len(l) == 0 || len(r) == 0 || l[0] != r[len(r)-1] }
		}
		return n
	case 4:
		n := &plan.ThetaJoin{Left: d.node(depth + 1), Right: d.node(depth + 1)}
		if d.next()%2 == 1 {
			n.Less = &plan.Less{LeftCol: d.col(), RightCol: d.col()}
		}
		if d.next()%2 == 1 {
			n.Pred = func(l, r []pdb.Value) bool { return len(l) > 0 && len(r) > 0 && l[0] <= r[0] }
		}
		return n
	case 5:
		return &plan.Project{Input: d.node(depth + 1), Cols: d.cols()}
	case 6:
		return &plan.GroupLineage{Input: d.node(depth + 1), Cols: d.cols()}
	case 7:
		return &plan.TopK{Input: d.node(depth + 1), K: d.next() % 4}
	case 8:
		n := &plan.Threshold{Input: d.node(depth + 1), Tau: math.NaN()}
		if b := d.next(); b < 255 {
			n.Tau = float64(b) / 250
		}
		return n
	}
	return nil
}

// TestRunFinishesWhenLoopBodyPanics: a panic in the caller's loop body
// over Prepared.Run still finishes the run — the query is counted, the
// WithTrace sink fires once and the borrowed interner goes back to the
// DB's pool, where the next query finds it (its clauses all hit, none
// is stored anew).
func TestRunFinishesWhenLoopBodyPanics(t *testing.T) {
	db := smallDB(t)
	ctx := context.Background()
	fired := 0
	// Forced onto the lineage route, whose clauses go through the interner.
	sess := db.Session(repro.WithForceLineage(), repro.WithTrace(func(*repro.QueryTrace) { fired++ }))
	q := func() *repro.Query { return sess.Query("R").Join(sess.Query("S"), 1, 0).GroupLineage(3).TopK(2) }
	// One whole run leaves an interner holding the query's clauses in
	// the pool.
	if _, err := q().All(ctx); err != nil {
		t.Fatal(err)
	}
	before := db.Snapshot()
	fired = 0
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the loop body's panic did not reach the caller")
			}
		}()
		for _, err := range q().Run(ctx) {
			if err != nil {
				t.Error(err)
			}
			panic("loop body")
		}
	}()
	if n := db.Snapshot().Sub(before).Queries; n != 1 {
		t.Errorf("Snapshot().Queries moved by %d, want 1", n)
	}
	if fired != 1 {
		t.Errorf("trace sink fired %d times, want 1", fired)
	}
	before = db.Snapshot()
	if _, err := q().All(ctx); err != nil {
		t.Fatal(err)
	}
	if d := db.Snapshot().Sub(before); d.InternerHits == 0 || d.InternerStored != 0 {
		t.Errorf("next query's interner: %d hits, %d stored; want the pooled one back (hits only)", d.InternerHits, d.InternerStored)
	}
}
