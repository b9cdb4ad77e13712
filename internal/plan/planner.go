package plan

import (
	"context"
	"errors"
	"fmt"
	rtrace "runtime/trace"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/formula"
	"repro/internal/obs"
	"repro/internal/pdb"
	"repro/internal/rank"
	"repro/internal/workpool"
)

// Route identifies which execution path the planner chose.
type Route int

const (
	// RouteLineage materializes lineage DNFs through the pipelined
	// runtime and hands them to an engine.Evaluator (the general,
	// possibly #P-hard path).
	RouteLineage Route = iota
	// RouteSafe evaluates an extensional safe plan — exact, no lineage
	// (hierarchical queries without self-joins).
	RouteSafe
	// RouteIQ evaluates an inequality sorted scan — exact, no lineage
	// (tractable IQ chain/star queries).
	RouteIQ
)

func (r Route) String() string {
	switch r {
	case RouteSafe:
		return "safe"
	case RouteIQ:
		return "iq"
	default:
		return "d-tree"
	}
}

// Options tunes planning.
type Options struct {
	// DisableSafe and DisableIQ force the corresponding structural
	// route off (benchmarks and figures use them to compare against the
	// forced lineage path).
	DisableSafe bool
	DisableIQ   bool
	// Shards is unread and named only by bench/.
	Shards int
	// Pool is the worker pool the batch conf() fan-out (one task per
	// answer) runs on; nil means the shared workpool.Default. A ranked
	// plan never enters it. The façade passes its DB's pool.
	Pool *workpool.Pool
	// Metrics, when non-nil, receives every execution's route, lineage
	// volumes and stage events, and is the default registry for the
	// ranking scheduler when the evaluator carries none. Nil-safe.
	Metrics *obs.Metrics
	// Inject, when non-nil, fires deterministic faults at the plan's
	// chaos sites (the core sites, through the ranking scheduler) — the
	// default injector when the evaluator carries none. Nil-safe.
	Inject *fault.Injector
}

// rankSpec is a ranking root (TopK/Threshold) stripped off the plan:
// what cut to apply to the routed query's answers.
type rankSpec struct {
	topk bool
	k    int
	tau  float64
}

func (r *rankSpec) describe() string {
	if r.topk {
		return fmt.Sprintf("top-%d", r.k)
	}
	return fmt.Sprintf("P≥%g", r.tau)
}

// Plan is a routed query: the logical root plus the planner's decision
// and, for the structural routes, the compiled exact evaluator.
type Plan struct {
	// Root is the routed query — for ranked queries, the input under
	// the stripped TopK/Threshold node.
	Root Node
	// Route is the chosen execution path.
	Route Route
	// Why explains the decision (or why the structural routes were
	// rejected), for traces and EXPLAIN-style output.
	Why string
	// Shards is always 1 and read only by bench/.
	Shards int

	rank *rankSpec
	// pool is the worker pool the ranking scheduler and conf fan-out run
	// on; metrics is the registry every execution records into (nil =
	// none).
	pool    *workpool.Pool
	metrics *obs.Metrics
	inject  *fault.Injector
	// err is why the plan cannot execute (see Err); leaves are the scans
	// the analysis walk registered (see Relations).
	err    error
	leaves []leafInfo
	safe   *safePlan
	iq     *iqPlan
}

// Compile analyzes root and chooses the cheapest applicable route:
// safe plan, IQ sorted scan, then the lineage pipeline. A nil root
// yields an empty lineage-routed plan. A TopK/Threshold root is
// stripped and recorded: Answers then returns only the ranked
// selection — exactly sorted on the structural routes, decided by the
// anytime bound-separation scheduler on the lineage route. A malformed
// tree compiles to a plan whose Err says why; no route executes it.
func Compile(root Node) *Plan {
	return CompileWith(root, Options{})
}

// CompileWith is Compile with planner options.
func CompileWith(root Node, opt Options) *Plan {
	var spec *rankSpec
	switch t := root.(type) {
	case *TopK:
		spec, root = &rankSpec{topk: true, k: t.K}, t.Input
	case *Threshold:
		spec, root = &rankSpec{tau: t.Tau}, t.Input
	}
	p := compileRouted(root, opt)
	p.rank = spec
	if spec != nil {
		switch {
		case root == nil:
			p.reject("nil input node")
		case spec.topk && spec.k <= 0:
			p.reject(fmt.Sprintf("TopK.K must be positive, got %d", spec.k))
		case !spec.topk && !(spec.tau >= 0 && spec.tau <= 1): // NaN fails both
			p.reject(fmt.Sprintf("Tau must be a probability in [0, 1], got %v", spec.tau))
		}
		p.Why = spec.describe() + " over " + p.Why
	}
	return p
}

// reject marks the plan unexecutable: every execution entry point
// returns the error, and Explain shows the reason.
func (p *Plan) reject(reason string) {
	if p.err == nil {
		p.err = errors.New("plan: " + reason)
		p.Why = "invalid plan: " + reason
	}
}

// Err returns why the plan cannot execute — the first malformation
// Compile met — or nil. Answers, AnswersTraced and StreamTraced return
// it before any route runs, and Lineage returns nil answers.
func (p *Plan) Err() error { return p.err }

// Relations returns the base relation of every Scan in the plan, in
// left-to-right tree order (a self-join lists its relation twice). For
// an invalid plan it lists the scans Compile reached.
func (p *Plan) Relations() []*pdb.Relation {
	rels := make([]*pdb.Relation, len(p.leaves))
	for i := range p.leaves {
		rels[i] = p.leaves[i].rel
	}
	return rels
}

// compileRouted routes a rank-free query.
func compileRouted(root Node, opt Options) *Plan {
	p := &Plan{Root: root, Route: RouteLineage, Shards: 1, pool: opt.Pool, metrics: opt.Metrics, inject: opt.Inject}
	if root == nil {
		p.Why = "empty query"
		return p
	}
	a := analyze(groupOf(root))
	p.leaves = a.leaves
	if a.invalid != "" {
		p.reject(a.invalid)
		return p
	}
	// Rule the structural routes out by plan shape and options before
	// checking event independence, which may scan every tuple.
	if opt.DisableSafe && opt.DisableIQ {
		p.Why = "structural routes disabled"
		return p
	}
	if a.taint != "" {
		p.Why = fmt.Sprintf("lineage + d-tree (%s)", a.taint)
		return p
	}
	if indep, panicked := scanIndependent(a.leaves); panicked != nil {
		// The lineage pipeline runs the same filters, so the failure
		// surfaces where every other one does: contained, at execution.
		p.Why = fmt.Sprintf("lineage + d-tree (independence scan panicked: %v)", panicked)
		return p
	} else if !indep {
		p.Why = "correlated tuple events (shared variables) require lineage"
		return p
	}
	var safeReason, iqReason string
	if opt.DisableSafe {
		safeReason = "safe route disabled"
	} else if sp, reason := compileSafe(a); sp != nil {
		p.Route, p.safe = RouteSafe, sp
		p.Why = sp.desc
		return p
	} else {
		safeReason = reason
	}
	if opt.DisableIQ {
		iqReason = "IQ route disabled"
	} else if iq, reason := compileIQ(a); iq != nil {
		p.Route, p.iq = RouteIQ, iq
		p.Why = iq.desc
		return p
	} else {
		iqReason = reason
	}
	p.Why = fmt.Sprintf("lineage + d-tree (not safe: %s; not IQ: %s)", safeReason, iqReason)
	return p
}

// scanIndependent is eventIndependent with a panic out of a
// caller-supplied leaf filter recovered and returned instead:
// compilation must not unwind its caller.
func scanIndependent(leaves []leafInfo) (indep bool, panicked any) {
	defer func() { panicked = recover() }()
	return eventIndependent(leaves), nil
}

// Explain returns a one-line routing explanation.
func (p *Plan) Explain() string {
	return fmt.Sprintf("route=%s: %s", p.Route, p.Why)
}

// Lineage evaluates the plan's root through the pipelined runtime,
// regardless of route — the answers with their lineage DNFs (none for
// an invalid plan).
func (p *Plan) Lineage() []pdb.Answer {
	if p.Root == nil || p.err != nil {
		return nil
	}
	answers, _ := p.lineage(context.Background(), nil, nil) // only a dead context fails it
	return answers
}

// lineage materializes the plan's answer lineage. The materialization's
// volumes are recorded on the plan's metrics and, on traced runs, on tr
// as the "lineage" stage. It stops within cancelStride tuples of ctx
// dying, with ctx's error.
func (p *Plan) lineage(ctx context.Context, in *formula.Interner, tr *obs.QueryTrace) ([]pdb.Answer, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	defer rtrace.StartRegion(ctx, "repro.lineage").End()
	start := time.Now()
	answers, st, err := lineageWithStats(ctx, p.Root, in)
	if err != nil {
		return nil, err
	}
	p.metrics.RecordLineage(st.answers, st.clauses, st.tuples)
	tr.SetLineage(st.answers, st.clauses, st.tuples)
	tr.AddStage("lineage", st.answers, time.Since(start))
	return answers, nil
}

// Answers computes the confidence of every answer along the chosen
// route. The structural routes are exact and ignore ev; the lineage
// route materializes answer DNFs and fans them out over ev (nil ev
// defaults to exact d-tree compilation). The returned answers are
// sorted by value, in pdb.CompareValueKeys order.
//
// For a ranked plan (a TopK/Threshold root was compiled), only the
// selected answers are returned, most probable first. The structural
// routes rank their exact probabilities directly; the lineage route
// hands the answers to the anytime scheduler, configured from ev (an
// engine.Approx is the scheduler's options as it stands, its Eps the
// refinement floor — see rankOptions).
func (p *Plan) Answers(ctx context.Context, s *formula.Space, ev engine.Evaluator) ([]pdb.AnswerConf, error) {
	return p.AnswersTraced(ctx, s, ev, nil, nil)
}

// AnswersTraced is Answers running the lineage pipeline through a
// caller-owned clause interner (nil allocates a fresh one; see Lineage)
// and populating tr — the per-query EXPLAIN ANALYZE trace — with the
// routing decision, stage timings and per-answer outcomes. A nil tr
// records nothing and executes identically (every trace method is a
// nil-safe no-op); the answers are bitwise identical either way.
func (p *Plan) AnswersTraced(ctx context.Context, s *formula.Space, ev engine.Evaluator, in *formula.Interner, tr *obs.QueryTrace) ([]pdb.AnswerConf, error) {
	confs, _, err := p.answers(ctx, s, ev, in, tr, nil)
	return confs, err
}

// answers is the one execution path behind Answers and StreamTraced. On
// the ranked lineage route a non-nil onDecided is called synchronously
// from inside the scheduling loop the moment an answer's membership is
// proven (rank.TopK's emit hook), with the answer's index into the
// lineage and its outcome so far; no other route calls it. The second
// result is that run's ranking — the lineage index behind each returned
// answer — and nil on every other route.
func (p *Plan) answers(ctx context.Context, s *formula.Space, ev engine.Evaluator, in *formula.Interner, tr *obs.QueryTrace,
	onDecided func(idx int, c pdb.AnswerConf)) ([]pdb.AnswerConf, []int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if p.err != nil {
		return nil, nil, p.err
	}
	if tr != nil { // Explain formats: not on the untraced path
		tr.SetPlan(p.Explain(), p.Route.String())
	}
	p.metrics.RecordRoute(p.Route.String())
	if p.Root == nil {
		return nil, nil, nil
	}
	// All three routes poll ctx while they scan, and honour an
	// already-expired context before starting.
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	switch p.Route {
	case RouteSafe, RouteIQ:
		start := time.Now()
		out, err := p.structural(ctx, s)
		if err != nil {
			return nil, nil, err
		}
		out = p.rankExact(out)
		tr.AddStage(p.Route.String(), int64(len(out)), time.Since(start))
		addAnswerTraces(tr, out)
		return out, nil, nil
	default:
		answers, lerr := p.lineageSafe(ctx, in, tr)
		if lerr != nil {
			return nil, nil, lerr
		}
		if p.rank != nil {
			opt, timeout := p.rankOptions(ev)
			if timeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, timeout)
				defer cancel()
			}
			var emit func(rank.Item)
			if onDecided != nil {
				emit = func(it rank.Item) {
					onDecided(it.Index, pdb.RankedConf(answers[it.Index], it))
				}
			}
			start := time.Now()
			region := rtrace.StartRegion(ctx, "repro.rank")
			var (
				res rank.Result
				err error
			)
			if p.rank.topk {
				res, err = rank.TopK(ctx, s, pdb.Lineages(answers), p.rank.k, opt, emit)
			} else {
				res, err = rank.Threshold(ctx, s, pdb.Lineages(answers), p.rank.tau, opt, emit)
			}
			region.End()
			p.recordRank(tr, answers, res, time.Since(start))
			return pdb.RankedConfs(answers, res), res.Ranking, err
		}
		if ev == nil {
			ev = engine.Approx{}
		}
		start := time.Now()
		region := rtrace.StartRegion(ctx, "repro.conf")
		confs, err := pdb.ConfWith(ctx, s, answers, ev, p.pool, nil)
		region.End()
		tr.AddStage("conf", int64(len(confs)), time.Since(start))
		addAnswerTraces(tr, confs)
		return confs, nil, err
	}
}

// structural evaluates the plan's safe plan or IQ scan, contained like
// lineageSafe. An IQ query with no qualifying combination of level
// elements has no answer.
func (p *Plan) structural(ctx context.Context, s *formula.Space) (out []pdb.AnswerConf, err error) {
	if p.Route == RouteSafe {
		defer p.contain("plan.safe", &err)
		return p.safe.answers(ctx, s)
	}
	defer p.contain("plan.iq", &err)
	levels, err := p.iq.weighted(ctx, s)
	if err != nil || !p.iq.hasAnswer(levels) {
		return nil, err
	}
	return []pdb.AnswerConf{exactAnswer(nil, p.iq.confidence(levels))}, nil
}

// lineageSafe is lineage, contained.
func (p *Plan) lineageSafe(ctx context.Context, in *formula.Interner, tr *obs.QueryTrace) (answers []pdb.Answer, err error) {
	defer p.contain("plan.lineage", &err)
	return p.lineage(ctx, in, tr)
}

// contain is the one panic containment around all three routes'
// execution, deferred by each: scans, joins and caller-supplied
// predicates run outside the evaluators' containment, so a panic there
// must fail this query — as an ordinary error through the
// partial-results plumbing, in place of any result, counted once —
// rather than unwind the caller. site names the route: plan.safe,
// plan.iq or plan.lineage.
func (p *Plan) contain(site string, err *error) {
	if v := recover(); v != nil {
		pe, first := fault.Promote(v, site)
		if first {
			p.metrics.RecordPanicRecovered()
		}
		*err = pe
	}
}

// recordRank records a scheduler run on the trace: the "rank" stage,
// the aggregate decide counts, and one answer trace per selected
// answer (in rank order, with the per-answer refinement step count and
// DecidedAtStep proof point).
func (p *Plan) recordRank(tr *obs.QueryTrace, answers []pdb.Answer, res rank.Result, wall time.Duration) {
	if tr == nil {
		return
	}
	var in, out int64
	for _, it := range res.Items {
		if !it.Decided {
			continue
		}
		if it.Selected {
			in++
		} else {
			out++
		}
	}
	kind, k, tau := "threshold", 0, p.rank.tau
	if p.rank.topk {
		kind, k, tau = "top-k", p.rank.k, 0
	}
	tr.AddStage("rank", int64(len(res.Ranking)), wall)
	tr.SetRank(kind, k, tau, int64(res.Steps), in, out)
	for _, idx := range res.Ranking {
		it := res.Items[idx]
		tr.AddAnswer(obs.AnswerTrace{
			Vals: fmtVals(answers[idx].Vals),
			P:    it.P, Lo: it.Lo, Hi: it.Hi,
			Steps: it.Steps, DecidedAtStep: it.DecidedAtStep,
			Member: it.Decided && it.Selected,
		})
	}
}

// addAnswerTraces records per-answer outcomes for exactly-computed
// answers (structural routes and the unranked lineage route).
func addAnswerTraces(tr *obs.QueryTrace, confs []pdb.AnswerConf) {
	if tr == nil {
		return
	}
	for _, c := range confs {
		tr.AddAnswer(obs.AnswerTrace{Vals: fmtVals(c.Vals), P: c.P, Lo: c.Res.Lo, Hi: c.Res.Hi})
	}
}

// fmtVals renders an answer tuple for traces: "(v1,v2)"; "()" is the
// Boolean answer.
func fmtVals(vals []pdb.Value) string {
	if len(vals) == 0 {
		return "()"
	}
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range vals {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(int64(v), 10))
	}
	b.WriteByte(')')
	return b.String()
}

// rankExact applies a ranking root to exactly-computed answers: sort
// by probability descending (stable, so the route's value order breaks
// ties) and cut at k / τ — the structural routes' short-circuit, no
// scheduling needed.
func (p *Plan) rankExact(out []pdb.AnswerConf) []pdb.AnswerConf {
	if p.rank == nil {
		return out
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].P > out[b].P })
	if p.rank.topk {
		if len(out) > p.rank.k {
			out = out[:p.rank.k]
		}
		return out
	}
	cut := len(out)
	for i, a := range out {
		if a.P < p.rank.tau {
			cut = i
			break
		}
	}
	return out[:cut]
}

// rankOptions derives the lineage route's scheduler configuration from
// the evaluator the caller would have used for plain answers: a d-tree
// evaluator's options are the scheduler's as they stand, its Eps the
// refinement floor. MonteCarlo has no bound-refinement analogue —
// rankings need certain intervals — but its Budget still bounds the
// run: MaxNodes and MaxWork per answer, and Timeout, returned for the
// caller to put on the run's context. Evaluate has value receivers, so
// a pointer to either is an Evaluator too and reads like its value. A
// nil or unknown evaluator means refine-to-exactness with no budget.
// The metrics registry and fault injector default to the plan's own.
func (p *Plan) rankOptions(ev engine.Evaluator) (opt rank.Options, timeout time.Duration) {
	switch e := ev.(type) {
	case engine.Approx:
		opt = e
	case *engine.Approx:
		if e != nil {
			opt = *e
		}
	case engine.MonteCarlo:
		opt, timeout = rank.Options{MaxNodes: e.Budget.MaxNodes, MaxWork: e.Budget.MaxWork}, e.Budget.Timeout
	case *engine.MonteCarlo:
		if e != nil {
			return p.rankOptions(*e)
		}
	}
	if opt.Metrics == nil {
		opt.Metrics = p.metrics
	}
	if opt.Inject == nil {
		opt.Inject = p.inject
	}
	return opt, timeout
}

func exactAnswer(vals []pdb.Value, prob float64) pdb.AnswerConf {
	return pdb.AnswerConf{
		Vals: vals,
		P:    prob,
		Res: engine.Result{
			Lo: prob, Hi: prob, Estimate: prob,
			Exact: true, Converged: true,
		},
	}
}
