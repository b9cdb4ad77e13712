package exp

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/formula"
	"repro/internal/graphs"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/randdnf"
	"repro/internal/rank"
	"repro/internal/tpch"
)

var update = flag.Bool("update", false, "rewrite testdata/ledger.txt from this run")

const ledgerPath = "testdata/ledger.txt"

// ledgerHeader opens the ledger file; it says how to read a row.
const ledgerHeader = `# The step ledger: every machine-independent count of the evaluation,
# recomputed by TestStepLedger and compared with this file byte for
# byte. Rewrite it with
#   go test -count=1 -run TestStepLedger ./internal/exp -update
# only for a sanctioned change of counts or bits, and list the rows that
# moved in CHANGES.md.
#
# A row is <corpus>/<instance>/<engine>/<answer> and its counters:
#   nodes  d-tree nodes, the prepared root included
#   steps  refinement steps (ε runs; an exact run's steps are its
#          inner nodes, ⊗+⊙+⊕)
#   conv   the guarantee was met within budget
#   lo hi p  Float64bits of the bounds and the estimate, in hex
#   ⊗ ⊙ ⊕ leaf  core.ExactShape of an exact run; memo=hits/misses
#   samples  Monte Carlo samples (aconf columns)
#   rank steps, first  a ranking run's total steps and first decided step
#   decided  DecidedAtStep of a selected answer
`

// ledger collects the rows of one TestStepLedger run.
type ledger struct {
	t    *testing.T
	rows []string
	keys map[string]bool
}

// row appends one row; a key seen before is a bug in the corpus list.
func (l *ledger) row(key string, fields ...string) {
	key = strings.ReplaceAll(key, " ", "_")
	if l.keys[key] {
		l.t.Fatalf("ledger key %s repeats", key)
	}
	l.keys[key] = true
	l.rows = append(l.rows, key+" "+strings.Join(fields, " "))
}

func hex(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }

func field(name string, v any) string { return fmt.Sprint(name, "=", v) }

// bounds are a result's counters common to every engine.
func bounds(conv bool, lo, hi, p float64) []string {
	return []string{field("conv", conv), "lo=" + hex(lo), "hi=" + hex(hi), "p=" + hex(p)}
}

// budgetCut fails the ledger on any evaluation error but a spent
// budget, which a row records as conv=false.
func (l *ledger) budgetCut(key string, err error) {
	if err != nil && !errors.Is(err, core.ErrBudget) {
		l.t.Fatalf("%s: %v", key, err)
	}
}

// eval records ev on one formula: an ε d-tree as a Refiner run to its
// guarantee (what ApproxCtx does), an exact one through ExactShape, and
// a Monte Carlo column by its samples.
func (l *ledger) eval(key string, ev engine.Evaluator, s *formula.Space, d formula.DNF) {
	ctx := context.Background()
	opt, dtree := ev.(core.Options)
	switch {
	case dtree && opt.Eps == 0:
		opt.Metrics = obs.NewMetrics()
		res, sh, err := core.ExactShape(ctx, s, d, opt)
		l.budgetCut(key, err)
		m := opt.Metrics.Snapshot()
		fields := append([]string{field("nodes", res.Nodes)}, bounds(res.Converged, res.Lo, res.Hi, res.Estimate)...)
		l.row(key, append(fields, field("⊗", sh[core.IndepOr]), field("⊙", sh[core.IndepAnd]), field("⊕", sh[core.ExclOr]),
			field("leaf", sh[core.LeafKind]), fmt.Sprintf("memo=%d/%d", m.FragCacheHits, m.FragCacheMisses))...)
	case dtree:
		r := core.NewRefiner(ctx, s, d, opt)
		r.Step(math.MaxInt)
		l.budgetCut(key, r.Err())
		res := r.Result()
		l.row(key, append([]string{field("nodes", res.Nodes), field("steps", r.Steps())},
			bounds(res.Converged, res.Lo, res.Hi, res.Estimate)...)...)
	default:
		res, err := ev.Evaluate(ctx, s, d)
		l.budgetCut(key, err)
		l.row(key, append([]string{field("samples", res.Samples)}, bounds(res.Converged, res.Lo, res.Hi, res.Estimate)...)...)
	}
}

// scenarioRows records every column of rows on every answer with
// lineage; the SPROUT column records the planner's exact answers.
func (l *ledger) scenarioRows(corpus string, rows []Row, keep func(Column) bool) {
	for _, r := range rows {
		prefix := corpus + "/" + r.Fig + "/" + strings.Join(r.Labels, "/")
		for j, c := range r.Cols {
			if !keep(c) {
				continue
			}
			if c.Eval == nil {
				answers, err := plan.Compile(r.Node).Answers(context.Background(), r.Space, nil)
				if err != nil {
					l.t.Fatalf("%s: %v", prefix, err)
				}
				for i, a := range answers {
					l.row(fmt.Sprintf("%s/%s/%d", prefix, c.Name, i), "p="+hex(a.P))
				}
				continue
			}
			for i, d := range r.DNFs {
				if len(d) > 0 {
					l.eval(fmt.Sprintf("%s/%s/%d", prefix, c.Name, i), r.answerEval(j, i), r.Space, d)
				}
			}
		}
	}
}

// TestStepLedger recomputes every corpus of the ledger and compares the
// rows with testdata/ledger.txt; -update rewrites the file instead.
func TestStepLedger(t *testing.T) {
	if raceEnabled {
		t.Skip("the counts do not depend on the race detector, under which the ledger takes over a minute; CI runs it without -race at GOMAXPROCS 1, 2 and 8")
	}
	l := &ledger{t: t, keys: map[string]bool{}}
	all := func(Column) bool { return true }

	// Every Section VII instance at smoke scale, every column.
	l.scenarioRows("smoke", Scenarios(Smoke()), all)

	// The stats table's complete d-trees again with a memo per answer,
	// the exact configuration a session evaluates with.
	for _, r := range Scenarios(Smoke(), "stats") {
		for i, d := range r.DNFs {
			opt := r.Cols[0].Eval.(core.Options)
			opt.Frags = formula.NewFragCache(0)
			l.eval(fmt.Sprintf("smoke/stats/%s/%s+memo/%d", strings.Join(r.Labels, "/"), r.Cols[0].Name, i), opt, r.Space, d)
		}
	}

	// Fig. 7's B9 under the figure's own budgets: its d-tree columns.
	p := Small()
	p.SFs = []float64{0.0005, 0.001}
	var b9 []Row
	for _, r := range Scenarios(p, "fig7") {
		if r.Labels[0] == "B9" {
			b9 = append(b9, r)
		}
	}
	l.scenarioRows("small", b9, func(c Column) bool { return strings.HasPrefix(c.Name, "d-tree") })

	// Fig. 8's triangle on K_n at p = 0.3 under a work budget above the
	// figure harness's.
	for _, tc := range []struct {
		n    int
		eps  float64
		kind core.ErrorKind
	}{{8, 0.05, core.Relative}, {8, 0.05, core.Absolute}, {8, 0.01, core.Relative}, {6, 0.05, core.Relative}} {
		g := graphs.Complete(tc.n, 0.3)
		l.eval(fmt.Sprintf("triangle/K%d/%v/%g", tc.n, tc.kind, tc.eps),
			core.Options{Eps: tc.eps, Kind: tc.kind, MaxWork: 30_000_000}, g.Space(), g.TriangleDNF())
	}

	l.tpchLineage()
	l.hardRST()
	l.rankCorpora()

	// The Refiner's width3 fixture (core's TestRefinerStepsMatchOracle):
	// a node budget cuts every run.
	for _, clauses := range []int{40, 80, 160, 320} {
		s, d := randdnf.Width3(clauses)
		l.eval(fmt.Sprintf("width3/%d/absolute/1e-12", clauses),
			core.Options{Eps: 1e-12, Kind: core.Absolute, MaxNodes: 40 * clauses}, s, d)
	}

	// n × n R(x) S(x,y) T(y) grids at tiny p, in both declaration orders.
	for _, n := range []int{3, 5, 8} {
		for _, pr := range []float64{1e-5, 1e-9} {
			for _, alt := range []bool{false, true} {
				s, d := rstGrid(n, pr, alt)
				key := fmt.Sprintf("grid/%dx%d/p=%g/", n, n, pr)
				if alt {
					key += "alternating/"
				} else {
					key += "x-then-y/"
				}
				l.eval(key+"exact", core.Options{}, s, d)
				l.eval(key+"relative/0.1", core.Options{Eps: 0.1, Kind: core.Relative}, s, d)
			}
		}
	}

	got := ledgerHeader + strings.Join(l.rows, "\n") + "\n"
	if *update {
		if err := os.WriteFile(ledgerPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if string(want) != got {
		t.Errorf("the ledger moved; the rows that differ (-want +got):\n%s", ledgerDiff(string(want), got))
	}
}

// ledgerDiff lists the rows whose counters changed, that are missing,
// or that are new, at most 40 lines.
func ledgerDiff(want, got string) string {
	split := func(s string) (keys []string, rows map[string]string) {
		rows = map[string]string{}
		for _, line := range strings.Split(s, "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			k, _, _ := strings.Cut(line, " ")
			keys = append(keys, k)
			rows[k] = line
		}
		return keys, rows
	}
	wk, wr := split(want)
	gk, gr := split(got)
	var out []string
	for _, k := range wk {
		if g, ok := gr[k]; !ok {
			out = append(out, "-"+wr[k])
		} else if g != wr[k] {
			out = append(out, "-"+wr[k], "+"+g)
		}
	}
	for _, k := range gk {
		if _, ok := wr[k]; !ok {
			out = append(out, "+"+gr[k])
		}
	}
	if len(out) == 0 {
		return "(same rows; the header or the row order differs)"
	}
	if len(out) > 40 {
		out = append(out[:40], fmt.Sprintf("… and %d more", len(out)-40))
	}
	return strings.Join(out, "\n")
}

// tpchLineage records the bench workload tpch_lineage's seven queries
// at SF 0.0015, data seed 42, forced onto the lineage route at absolute
// ε 1e-2, one fresh session per query as a pass runs them. Each DB's
// pool is resized to 1: batch conf() workers racing to the same memo
// miss would make node counts depend on the schedule.
func (l *ledger) tpchLineage() {
	ctx := context.Background()
	t := tpch.Generate(tpch.Config{SF: 0.0015, ProbHigh: 1, Seed: 42})
	sk := tpch.GenerateSkewed(24000, 480, 1.2, 42)
	db := repro.NewDB(t.Space, t.Relations()...)
	sdb := repro.NewDB(sk.Space, sk.Fact, sk.Dim)
	db.Pool().Resize(1)
	sdb.Pool().Resize(1)
	lisupp := &plan.GroupLineage{
		Input: &plan.EquiJoin{
			Left: &plan.Scan{Rel: t.Lineitem}, Right: &plan.Scan{Rel: t.Supplier},
			LeftCol: t.Lineitem.MustCol("l_suppkey"), RightCol: t.Supplier.MustCol("s_suppkey"),
		},
		Cols: []int{len(t.Lineitem.Cols) + t.Supplier.MustCol("s_nationkey")},
	}
	type query struct {
		name string
		db   *repro.DB
		node plan.Node
	}
	var qs []query
	for _, name := range []string{"B2", "B20", "B21", "Q1", "Q15"} {
		qs = append(qs, query{name, db, t.Query(name)})
	}
	qs = append(qs, query{"lisupp", db, lisupp}, query{"skew", sdb, sk.JoinIR()})
	for _, q := range qs {
		before := q.db.Snapshot()
		answers, err := q.db.Session(repro.WithForceLineage(), repro.WithEps(1e-2)).Query(q.node).All(ctx)
		if err != nil {
			l.t.Fatalf("tpch_lineage %s: %v", q.name, err)
		}
		m := q.db.Snapshot().Sub(before)
		nodes := 0
		for _, a := range answers {
			nodes += a.Res.Nodes
		}
		key := "tpch_lineage/" + q.name
		l.row(key, field("answers", len(answers)), field("nodes", nodes), field("steps", m.RefineSteps))
		for i, a := range answers {
			l.row(fmt.Sprintf("%s/%d", key, i), append([]string{field("nodes", a.Res.Nodes)},
				bounds(a.Res.Converged, a.Res.Lo, a.Res.Hi, a.P)...)...)
		}
	}
}

// hardRST records the bench workload rank_cold's traced pass at seed 1:
// 48 windows of 64 groups over the hard R-S-T data (seed 42, 6×6, 512
// groups), each a top-10 query on a fresh session at ε 1e-3. Its mean
// total steps is the benchmark's rank.steps_per_op.
func (l *ledger) hardRST() {
	const (
		groups, width, k, windows = 512, 64, 10, 48
		seed                      = 1
	)
	d := tpch.GenerateHardRST(42, 6, groups)
	db := repro.NewDB(d.Space, d.X, d.Y, d.E)
	rng := rand.New(rand.NewSource(seed * 1_000_003))
	total := 0
	for op := range windows {
		a := int64(rng.Intn(groups - width + 1))
		var tr *obs.QueryTrace
		sess := db.Session(repro.WithEps(1e-3), repro.WithTrace(func(q *repro.QueryTrace) { tr = q }))
		answers, err := repro.Collect(sess.Query(d.WindowIR(a, width, k)).Run(context.Background()))
		if err != nil || tr == nil || tr.Rank == nil {
			l.t.Fatalf("hard_rst window %d: %v", a, err)
		}
		total += int(tr.Rank.Steps)
		key := fmt.Sprintf("hard_rst/op=%02d/window=%d", op, a)
		var decided []int
		for _, ans := range answers {
			decided = append(decided, ans.DecidedAtStep)
		}
		l.row(key, field("rank steps", tr.Rank.Steps), field("first", firstDecided(decided)))
		for _, ans := range answers {
			l.row(fmt.Sprintf("%s/g=%d", key, ans.Vals[0]),
				append(bounds(ans.Res.Converged, ans.Res.Lo, ans.Res.Hi, ans.P), field("decided", ans.DecidedAtStep))...)
		}
	}
	l.row("hard_rst/mean", fmt.Sprintf("rank steps=%.2f", float64(total)/windows))
}

// rankCorpora records rank's fixtures at absolute ε 1e-6: top-10, full
// refinement and threshold cuts. τ = 0.5 lies above every answer's
// prepared bounds, so that cut takes no step; τ = 0.08 cuts the top ten.
func (l *ledger) rankCorpora() {
	const k, eps = 10, 1e-6
	ctx := context.Background()
	opt := rank.Options{Eps: eps}
	for _, tc := range []struct {
		name string
		gen  func(int) (*formula.Space, []formula.DNF)
		n    int
		full bool
		taus []float64
	}{
		{"answers", randdnf.Answers, 240, true, []float64{0.5, 0.08}},
		{"answers-deep", randdnf.AnswersDeep, 48, true, nil},
		{"answers", randdnf.Answers, 60, false, nil},
		{"answers", randdnf.Answers, 960, false, nil},
	} {
		s, dnfs := tc.gen(tc.n)
		key := fmt.Sprintf("rank/%s/n=%d/", tc.name, tc.n)
		res, err := rank.TopK(ctx, s, dnfs, k, opt, nil)
		if err != nil {
			l.t.Fatalf("%s: %v", key, err)
		}
		l.rankRun(key+"top10", res)
		if tc.full {
			res, err := rank.RefineAll(ctx, s, dnfs, opt)
			if err != nil {
				l.t.Fatalf("%s: %v", key, err)
			}
			l.row(key+"full", field("rank steps", res.Steps))
		}
		for _, tau := range tc.taus {
			res, err := rank.Threshold(ctx, s, dnfs, tau, opt, nil)
			if err != nil {
				l.t.Fatalf("%s: %v", key, err)
			}
			l.rankRun(fmt.Sprintf("%sthreshold%g", key, tau), res)
		}
	}
}

// rankRun records a ranking run: its steps and first decided step, then
// each selected answer.
func (l *ledger) rankRun(key string, res rank.Result) {
	var decided []int
	for _, i := range res.Ranking {
		decided = append(decided, res.Items[i].DecidedAtStep)
	}
	l.row(key, field("rank steps", res.Steps), field("first", firstDecided(decided)))
	for _, i := range res.Ranking {
		it := res.Items[i]
		l.row(fmt.Sprintf("%s/%d", key, i), append([]string{field("steps", it.Steps)},
			append(bounds(it.Converged, it.Lo, it.Hi, it.P), field("decided", it.DecidedAtStep))...)...)
	}
}

// firstDecided is the earliest DecidedAtStep of the selected answers,
// 0 when none was decided by bound separation.
func firstDecided(decided []int) int {
	first := 0
	for _, at := range decided {
		if at > 0 && (first == 0 || at < first) {
			first = at
		}
	}
	return first
}

// rstGrid is the n × n R(x) S(x,y) T(y) grid: clause xᵢ ∧ sᵢⱼ ∧ yⱼ,
// every variable at probability p. The x's are declared before the y's,
// or alternating x₀ y₀ x₁ y₁ … when alt is set; the sᵢⱼ follow, in
// clause order. The Shannon tie-break reads variable ids, so the two
// orders build different trees.
func rstGrid(n int, p float64, alt bool) (*formula.Space, formula.DNF) {
	s := formula.NewSpace()
	xs, ys := make([]formula.Var, n), make([]formula.Var, n)
	if alt {
		for i := range xs {
			xs[i], ys[i] = s.AddBool(p), s.AddBool(p)
		}
	} else {
		for i := range xs {
			xs[i] = s.AddBool(p)
		}
		for i := range ys {
			ys[i] = s.AddBool(p)
		}
	}
	var d formula.DNF
	for _, x := range xs {
		for _, y := range ys {
			d = append(d, formula.MustClause(formula.Pos(x), formula.Pos(s.AddBool(p)), formula.Pos(y)))
		}
	}
	return s, d
}
