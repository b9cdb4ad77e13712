package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/formula"
	"repro/internal/obs"
	"repro/internal/pdb"
	"repro/internal/plan"
	"repro/internal/rank"
	"repro/internal/serve"
)

// perLayer is taken from the traced pass, layer = module name. Every
// workload reports every name; a layer a workload does not enter reads
// 0. Counts marked exact are the ones the engine promises to be
// deterministic at a fixed seed; hit fractions and node counts are not,
// because parallel workers can race to the same miss. README.md says
// which end-to-end metric each should move, on which workload.
var perLayer = []metricDef{
	{name: "repro.build_us_p50", unit: "us", better: "lower"},
	{name: "repro.other_ms_p50", unit: "ms", better: "lower"},
	{name: "plan.compile_us_p50", unit: "us", better: "lower"},
	{name: "plan.safe_ms_p50", unit: "ms", better: "lower"},
	{name: "plan.iq_ms_p50", unit: "ms", better: "lower"},
	{name: "plan.lineage_ms_p50", unit: "ms", better: "lower"},
	{name: "plan.lineage_shards1_ms_p50", unit: "ms", better: "lower"},
	{name: "plan.shard_fanout", unit: "count", better: "higher", exact: true},
	{name: "plan.lineage_clauses_per_op", unit: "count", better: "lower", exact: true},
	{name: "plan.lineage_tuples_per_op", unit: "count", better: "lower", exact: true},
	{name: "formula.intern_hit_frac", unit: "ratio", better: "higher"},
	{name: "formula.probcache_hit_frac", unit: "ratio", better: "higher"},
	{name: "formula.fragcache_hit_frac", unit: "ratio", better: "higher"},
	{name: "formula.fragcache_entries", unit: "count", better: "lower"},
	{name: "pdb.conf_ms_p50", unit: "ms", better: "lower"},
	{name: "engine.eval_busy_ms_p50", unit: "ms", better: "lower"},
	{name: "pdb.conf_speedup", unit: "ratio", better: "higher"},
	{name: "core.nodes_per_op", unit: "count", better: "lower"},
	{name: "core.steps_per_op", unit: "count", better: "lower", exact: true},
	{name: "core.prepare_cold_us_p50", unit: "us", better: "lower"},
	{name: "core.prepare_warm_us_p50", unit: "us", better: "lower"},
	{name: "core.step_us_p50", unit: "us", better: "lower"},
	{name: "rank.topk_ms_p50", unit: "ms", better: "lower"},
	{name: "rank.steps_per_op", unit: "count", better: "lower", exact: true},
	{name: "rank.steps_saved_frac", unit: "ratio", better: "higher", exact: true},
	{name: "rank.first_decided_step_frac", unit: "ratio", better: "lower", exact: true},
	{name: "rank.sched_overhead_frac", unit: "ratio", better: "lower"},
	{name: "workpool.spawned_frac", unit: "ratio", better: "higher"},
	{name: "serve.first_byte_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.wire_overhead_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.batch_json_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.allocs_per_request", unit: "count", better: "lower"},
	{name: "serve.deadline_overrun_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.degraded", unit: "count", better: "lower", exact: true},
	{name: "serve.rejected", unit: "count", better: "lower", exact: true},
	{name: "serve.sessions", unit: "count", better: "lower", exact: true},
	{name: "mc.aconf_ms_p50", unit: "ms", better: "lower"},
	{name: "engine.approx_rel_ms_p50", unit: "ms", better: "lower"},
	{name: "obs.trace_overhead_frac", unit: "ratio", better: "lower"},
	{name: "bench.trace_overhead_frac", unit: "ratio", better: "lower"},
	{name: "bench.oracle_s", unit: "s", better: "lower"},
	{name: "tpch.generate_s", unit: "s", better: "lower"},
	{name: "repro.newdb_s", unit: "s", better: "lower"},
	{name: "serve.start_s", unit: "s", better: "lower"},
}

// Op counts of the traced pass. They are fixed, not timed, so that the
// exact counts repeat; each is sized to take a few seconds here.
const (
	tracedTPCHOps  = 24
	tracedRankOps  = 48
	tracedSmallOps = 1200
	sideOps        = 8  // ops whose DNFs feed the prepare / RefineAll side measurements
	deadlineProbes = 50 // serve.deadline_overrun requests
	deadlineMS     = 50
)

// traced is the state of one traced pass.
type traced struct {
	ctx  context.Context
	seed int64
	tr   *tracer
	res  *runResult
}

func (t *traced) set(name string, v float64) { t.res.set(perLayer, name, v, 0) }

// attempt counts one op of the traced pass and its failure, if any.
func (t *traced) attempt(what string, err error) {
	t.res.attempted++
	if err != nil {
		t.res.fail(t.seed, fmt.Errorf("%s: %w", what, err))
	}
}

// runTraced is the separate traced pass: one set-up, then a fixed
// number of ops replayed first through the measured entry point (the
// untraced reference and the source of the counts) and then through a
// hand-assembled pipeline with a span around each call into a layer.
// Spans go to bench/out/trace-<workload>.json. No end-to-end metric is
// taken here.
func runTraced(ctx context.Context, w workload, seed int64) (runResult, error) {
	res := runResult{metrics: make(map[string]value)}
	if err := checkHost(w); err != nil {
		return res, err
	}
	t := &traced{ctx: ctx, seed: seed, tr: newTracer(), res: &res}
	for _, d := range perLayer {
		t.set(d.name, 0)
	}
	inst, _, st, err := setUp(w, seed, false)
	if err != nil {
		return res, err
	}
	t0 := time.Now()
	if err := inst.verify(ctx); err != nil {
		_ = inst.close() // the oracle failure is the error to report
		return res, fmt.Errorf("oracle: %w", err)
	}
	t.set("bench.oracle_s", time.Since(t0).Seconds())
	t.set("repro.newdb_s", st.newDB.Seconds())
	t.set("serve.start_s", st.serveStart.Seconds())

	switch in := inst.(type) {
	case *tpchInst:
		t.set("tpch.generate_s", st.generate.Seconds())
		err = t.tpch(in)
	case *rankColdInst:
		err = t.rankCold(in)
	case *serveInst:
		err = t.serve(w, in)
	}
	if cerr := inst.close(); err == nil && cerr != nil {
		err = fmt.Errorf("tear-down: %w", cerr)
	}
	if err != nil {
		return res, err
	}
	if err := writeJSON(outDir, "trace-"+w.name+".json", t.tr.spans); err != nil {
		return res, err
	}
	return res, nil
}

// ---- the hand-assembled pipeline ----

// handQuery is one query as the hand pipeline runs it.
type handQuery struct {
	name   string
	db     *repro.DB
	node   plan.Node
	forced bool
	eps    float64
	// prob and frags are pinned caches; nil means fresh ones per query,
	// which is what a fresh session gives the façade.
	prob  *formula.ProbCache
	frags *formula.FragCache
}

// handOut is what one hand-pipeline query produced, for the counts and
// the side measurements.
type handOut struct {
	route   plan.Route
	shards  int
	lineage []pdb.Answer
	rank    rank.Result
	nodes   int
}

// hand replays q the way the façade's Prepared.Run does — CompileWith,
// then Answers on the structural routes or Lineage followed by the
// ranking scheduler / batch conf() on the lineage route — with a span
// around each call. Metrics stay nil so the replay leaves the DB's
// counters to the façade ops.
func (t *traced) hand(op, parent int, q handQuery) (handOut, error) {
	var (
		out handOut
		err error
		p   *plan.Plan
	)
	space, pool := q.db.Space(), q.db.Pool()
	t.tr.in("plan.compile", op, parent, func() {
		p = plan.CompileWith(q.node, plan.Options{DisableSafe: q.forced, DisableIQ: q.forced, Pool: pool})
	})
	out.route, out.shards = p.Route, p.Shards
	if p.Route != plan.RouteLineage {
		t.tr.in("plan."+p.Route.String(), op, parent, func() { _, err = p.Answers(t.ctx, space, nil) })
		return out, err
	}
	t.tr.in("plan.lineage", op, parent, func() { out.lineage = p.Lineage() })
	prob, frags := q.prob, q.frags
	if prob == nil {
		prob, frags = formula.NewProbCache(0), formula.NewFragCache(0)
	}
	if topk, ok := q.node.(*plan.TopK); ok {
		opt := rank.Options{Eps: q.eps, Kind: engine.Absolute, Cache: prob, Frags: frags, Pool: pool}
		t.tr.in("rank.topk", op, parent, func() {
			_, out.rank, err = pdb.ConfTopK(t.ctx, space, out.lineage, topk.K, opt)
		})
		return out, err
	}
	ev := evaluator(q.eps, prob, frags, q.db)
	t.tr.in("pdb.conf", op, parent, func() {
		var confs []pdb.AnswerConf
		confs, err = pdb.ConfWith(t.ctx, space, out.lineage, ev, pool, nil)
		for _, c := range confs {
			out.nodes += c.Res.Nodes
		}
	})
	return out, err
}

// evaluator is the evaluator a session with these knobs derives.
func evaluator(eps float64, prob *formula.ProbCache, frags *formula.FragCache, db *repro.DB) engine.Evaluator {
	if eps > 0 {
		return engine.Approx{Eps: eps, Kind: engine.Absolute, Cache: prob, Frags: frags, Pool: db.Pool()}
	}
	return engine.Exact{Cache: prob, Pool: db.Pool()}
}

// layerP50s sets each layer's p50 from the spans recorded since span
// index from, and returns per-op sums of all child spans (what the
// layers account for) and the op spans' own durations, in milliseconds.
func (t *traced) layerP50s(from int) (layers, ops []float64) {
	spans := t.tr.spans[from:]
	per := byName(spans, durations(spans))
	for name, xs := range per {
		switch name {
		case "plan.compile":
			t.set("plan.compile_us_p50", 1000*median(xs))
		case "plan.safe", "plan.iq", "plan.lineage", "pdb.conf", "rank.topk":
			t.set(name+"_ms_p50", median(xs))
		}
	}
	// What the layers account for in an op is the op span minus its self
	// time.
	self := selfTimes(spans)
	for i, s := range spans {
		if s.Name == "op" {
			d := time.Duration(s.End - s.Start)
			ops = append(ops, ms(d))
			layers = append(layers, ms(d-self[i]))
		}
	}
	return layers, ops
}

// closeAttribution reports the unattributed residual and the traced
// pass's overhead against the untraced façade ops of the same pass.
func (t *traced) closeAttribution(facade, layers, ops []float64) {
	t.set("repro.other_ms_p50", median(facade)-median(layers))
	t.set("bench.trace_overhead_frac", median(ops)/median(facade)-1)
}

// counter accumulates the engine counters' movement across the calls
// it is wrapped around, summed over its DBs. The façade ops are wrapped;
// the replay between them is not, and records nothing anyway.
type counter struct {
	dbs []*repro.DB
	sum obs.Snapshot
}

func (c *counter) around(fn func()) {
	before := make([]obs.Snapshot, len(c.dbs))
	for i, db := range c.dbs {
		before[i] = db.Snapshot()
	}
	fn()
	for i, db := range c.dbs {
		d := db.Snapshot().Sub(before[i])
		c.sum.LineageClauses += d.LineageClauses
		c.sum.LineageTuples += d.LineageTuples
		c.sum.RefineSteps += d.RefineSteps
		c.sum.ProbCacheHits += d.ProbCacheHits
		c.sum.ProbCacheMisses += d.ProbCacheMisses
		c.sum.FragCacheHits += d.FragCacheHits
		c.sum.FragCacheMisses += d.FragCacheMisses
		c.sum.InternerHits += d.InternerHits
		c.sum.InternerStored += d.InternerStored
		c.sum.PoolSpawned += d.PoolSpawned
		c.sum.PoolInline += d.PoolInline
	}
}

func frac(part, rest int64) float64 {
	if part+rest == 0 {
		return 0
	}
	return float64(part) / float64(part+rest)
}

// setCounts reports the engine counts of n façade ops.
func (t *traced) setCounts(d obs.Snapshot, n int) {
	t.set("plan.lineage_clauses_per_op", float64(d.LineageClauses)/float64(n))
	t.set("plan.lineage_tuples_per_op", float64(d.LineageTuples)/float64(n))
	t.set("core.steps_per_op", float64(d.RefineSteps)/float64(n))
	t.set("formula.intern_hit_frac", frac(d.InternerHits, d.InternerStored))
	t.set("formula.probcache_hit_frac", frac(d.ProbCacheHits, d.ProbCacheMisses))
	t.set("formula.fragcache_hit_frac", frac(d.FragCacheHits, d.FragCacheMisses))
	t.set("workpool.spawned_frac", frac(d.PoolSpawned, d.PoolInline))
}

// buildP50 times the façade's session + builder chain + Build for each
// query of one op, summed per op, over n ops.
func (t *traced) buildP50(n int, qs []handQuery) {
	var xs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		for _, q := range qs {
			opts := []repro.SessionOption{repro.WithEps(q.eps)}
			if q.forced {
				opts = append(opts, repro.WithForceLineage())
			}
			if _, err := q.db.Session(opts...).Query(q.node).Build(); err != nil {
				t.attempt("build "+q.name, err)
			}
		}
		xs = append(xs, us(time.Since(t0)))
	}
	t.set("repro.build_us_p50", median(xs))
}

// ---- tpch_safe, tpch_lineage ----

func (t *traced) tpch(in *tpchInst) error {
	qs := make([]handQuery, len(in.qs))
	dbs := []*repro.DB{}
	for i, q := range in.qs {
		qs[i] = handQuery{name: q.name, db: q.db, node: q.node, forced: in.forced, eps: in.eps}
		if len(dbs) == 0 || dbs[len(dbs)-1] != q.db {
			dbs = append(dbs, q.db)
		}
	}
	t.buildP50(tracedTPCHOps, qs)

	// Each pass runs three times in turn — through the façade (the
	// untraced reference and the source of the counts), through the
	// replay with its spans, and through the two side measurements on the
	// replay's lineage: the same lineage at Shards: 1, and the answers
	// evaluated one at a time (conf()'s sequential sum). Taking turns
	// keeps the host's slow and fast phases out of the differences.
	from := len(t.tr.spans)
	counts := counter{dbs: dbs}
	var facade, shards1, busy []float64
	var nodes, fanout, lineageQs int
	for i := 0; i < tracedTPCHOps; i++ {
		counts.around(func() {
			r := in.op(t.ctx, 0, i)
			t.attempt("façade pass", r.err)
			facade = append(facade, ms(r.total))
		})
		op := t.tr.begin("op", i, -1)
		outs := make([]handOut, len(qs))
		for qi, q := range qs {
			var err error
			outs[qi], err = t.hand(i, op, q)
			t.attempt("traced "+q.name, err)
		}
		t.tr.end(op)
		var s1, seq time.Duration
		for qi, q := range qs {
			out := outs[qi]
			if out.route != plan.RouteLineage {
				continue
			}
			nodes += out.nodes
			fanout += out.shards
			lineageQs++
			t0 := time.Now()
			plan.CompileWith(q.node, plan.Options{DisableSafe: true, DisableIQ: true, Shards: 1, Pool: q.db.Pool()}).Lineage()
			s1 += time.Since(t0)
			ev := evaluator(q.eps, formula.NewProbCache(0), formula.NewFragCache(0), q.db)
			t0 = time.Now()
			for _, a := range out.lineage {
				if _, err := ev.Evaluate(t.ctx, q.db.Space(), a.Lin); err != nil {
					t.attempt("sequential conf "+q.name, err)
				}
			}
			seq += time.Since(t0)
		}
		shards1 = append(shards1, ms(s1))
		busy = append(busy, ms(seq))
	}
	t.setCounts(counts.sum, tracedTPCHOps)
	layers, ops := t.layerP50s(from)
	t.closeAttribution(facade, layers, ops)
	if lineageQs > 0 {
		t.set("plan.lineage_shards1_ms_p50", median(shards1))
		t.set("plan.shard_fanout", float64(fanout)/float64(lineageQs))
		t.set("engine.eval_busy_ms_p50", median(busy))
		t.set("pdb.conf_speedup", median(busy)/t.res.metrics["pdb.conf_ms_p50"].Value)
		t.set("core.nodes_per_op", float64(nodes)/tracedTPCHOps)
	}
	return nil
}

// ---- rank_cold ----

// run is rank_cold's op on a caller-visible session, so that the traced
// pass can read the session's caches afterwards.
func (in *rankColdInst) run(ctx context.Context, a int64, opts ...repro.SessionOption) (*repro.Session, time.Duration, error) {
	start := time.Now()
	sess := in.db.Session(append([]repro.SessionOption{repro.WithEps(rstEps)}, opts...)...)
	_, err := repro.Collect(sess.Query(in.d.windowIR(a)).Run(ctx))
	return sess, time.Since(start), err
}

func (t *traced) rankCold(in *rankColdInst) error {
	starts := in.starts[:tracedRankOps]
	q := func(a int64) handQuery {
		return handQuery{name: fmt.Sprintf("window %d", a), db: in.db, node: in.d.windowIR(a), eps: rstEps}
	}
	t.buildP50(tracedRankOps, []handQuery{q(starts[0])})

	// Each op runs four times in turn: through the measured entry point
	// (the untraced reference and the source of the counts), on a plain
	// session and on one with a WithTrace sink (what the engine's own
	// tracing costs when it is on; the plain session's fragment cache
	// gives the entries), and through the replay with its spans. Taking
	// turns keeps the host's slow and fast phases out of the differences.
	from := len(t.tr.spans)
	counts := counter{dbs: []*repro.DB{in.db}}
	var facade, plain, withTrace []float64
	var entries int64
	sink := func(*repro.QueryTrace) {}
	outs := make([]handOut, len(starts))
	for i, a := range starts {
		counts.around(func() {
			r := in.op(t.ctx, 0, i)
			t.attempt("façade op", r.err)
			facade = append(facade, ms(r.total))
		})
		sess, d, err := in.run(t.ctx, a)
		t.attempt("plain op", err)
		plain = append(plain, ms(d))
		entries += sess.FragCache().CacheStats().Entries
		_, d, err = in.run(t.ctx, a, repro.WithTrace(sink))
		t.attempt("WithTrace op", err)
		withTrace = append(withTrace, ms(d))

		op := t.tr.begin("op", i, -1)
		outs[i], err = t.hand(i, op, q(a))
		t.tr.end(op)
		t.attempt("traced op", err)
	}
	t.setCounts(counts.sum, tracedRankOps)
	t.set("obs.trace_overhead_frac", median(withTrace)/median(plain)-1)
	t.set("formula.fragcache_entries", float64(entries)/tracedRankOps)
	layers, ops := t.layerP50s(from)
	t.closeAttribution(facade, layers, ops)
	t.rankCounts(outs)
	t.refinerSides(in.d.Space, in.db, outs, nil)
	t.paperRow(in, outs[0].lineage)
	return nil
}

// rankCounts reports the scheduler's counts over the traced ops and,
// on the first sideOps of them, the steps RefineAll needs for the same
// DNFs — the base of steps_saved_frac.
func (t *traced) rankCounts(outs []handOut) {
	var steps, firstFrac float64
	for _, o := range outs {
		steps += float64(o.rank.Steps)
		first := 0
		for _, idx := range o.rank.Ranking {
			if at := o.rank.Items[idx].DecidedAtStep; at > 0 && (first == 0 || at < first) {
				first = at
			}
		}
		if o.rank.Steps > 0 {
			firstFrac += float64(first) / float64(o.rank.Steps)
		}
	}
	t.set("rank.steps_per_op", steps/float64(len(outs)))
	t.set("rank.first_decided_step_frac", firstFrac/float64(len(outs)))
}

// refinerSides measures leaf preparation and single refinement steps
// directly on core.Refiner, over the answer DNFs of the first sideOps
// traced ops: NewRefiner with an empty fragment cache (cold), again with
// the now-populated one (warm), Step(1) until done, and
// rank.RefineAll's step total against TopK's. resident, when non-nil,
// is a session's already-warm fragment cache: the warm prepare and the
// steps then run against it, as that session's queries do. It then
// derives the scheduler's overhead share.
func (t *traced) refinerSides(space *formula.Space, db *repro.DB, outs []handOut, resident *formula.FragCache) {
	outs = outs[:min(sideOps, len(outs))]
	var cold, warm, step []float64
	var topkSteps, allSteps, dnfs int
	for _, o := range outs {
		opt := core.Options{Eps: rstEps, Kind: core.Absolute, Cache: formula.NewProbCache(0), Frags: formula.NewFragCache(0), Pool: db.Pool()}
		for _, a := range o.lineage {
			t0 := time.Now()
			core.NewRefiner(t.ctx, space, a.Lin, opt)
			cold = append(cold, us(time.Since(t0)))
		}
		if resident != nil {
			opt.Frags = resident
		}
		for _, a := range o.lineage {
			t0 := time.Now()
			r := core.NewRefiner(t.ctx, space, a.Lin, opt)
			warm = append(warm, us(time.Since(t0)))
			for !r.Done() {
				t0 = time.Now()
				r.Step(1)
				step = append(step, us(time.Since(t0)))
			}
		}
		dnfs += len(o.lineage)
		all, err := rank.RefineAll(t.ctx, space, lineagesOf(o.lineage), rank.Options{Eps: rstEps, Pool: db.Pool()})
		t.attempt("RefineAll", err)
		topkSteps += o.rank.Steps
		allSteps += all.Steps
	}
	t.set("core.prepare_cold_us_p50", median(cold))
	t.set("core.prepare_warm_us_p50", median(warm))
	t.set("core.step_us_p50", median(step))
	if allSteps > 0 {
		t.set("rank.steps_saved_frac", 1-float64(topkSteps)/float64(allSteps))
	}
	// What TopK's wall is not spent in preparing its DNFs or stepping
	// their refiners, priced at the side measurements' medians.
	prep := median(cold)
	if resident != nil {
		prep = median(warm)
	}
	perOp := float64(dnfs) / float64(len(outs))
	inside := (perOp*prep + t.res.metrics["rank.steps_per_op"].Value*median(step)) / 1000
	topk := t.res.metrics["rank.topk_ms_p50"].Value
	t.set("rank.sched_overhead_frac", (topk-inside)/topk)
}

func lineagesOf(as []pdb.Answer) []formula.DNF {
	out := make([]formula.DNF, len(as))
	for i, a := range as {
		out[i] = a.Lin
	}
	return out
}

// paperRow is the paper-fidelity row: Karp-Luby/DKLR aconf against the
// d-tree relative ε-approximation on the 64 DNFs of the first traced
// window — the paper's d-tree-vs-aconf shape and the only relative-ε
// timing. No workload routes to mc.
func (t *traced) paperRow(in *rankColdInst, lineage []pdb.Answer) {
	aconf := engine.MonteCarlo{Eps: 0.05, Delta: 0.01, Budget: engine.Budget{MaxSamples: 3_000_000}, Seed: t.seed}
	rel := engine.Approx{Eps: 0.05, Kind: engine.Relative, Pool: in.db.Pool()}
	var mcMS, relMS []float64
	for _, a := range lineage {
		t0 := time.Now()
		_, err := aconf.Evaluate(t.ctx, in.d.Space, a.Lin)
		mcMS = append(mcMS, ms(time.Since(t0)))
		t.attempt("aconf", err)
		t0 = time.Now()
		_, err = rel.Evaluate(t.ctx, in.d.Space, a.Lin)
		relMS = append(relMS, ms(time.Since(t0)))
		t.attempt("relative approx", err)
	}
	t.set("mc.aconf_ms_p50", median(mcMS))
	t.set("engine.approx_rel_ms_p50", median(relMS))
}

// ---- rank_warm_serve, serve_small ----

func (t *traced) serve(w workload, in *serveInst) error {
	small := w.name == "serve_small"
	n, eps := tracedRankOps, rstEps
	if small {
		n, eps = tracedSmallOps, smallEps
	}
	cl := in.clients[0]
	serveBefore, err := in.srv.metrics(t.ctx)
	if err != nil {
		return err
	}

	// The façade and the replay run on caches pinned across ops and
	// warmed by the same warm-up ops, as a named session's are.
	prob, frags := repro.NewProbCache(0), repro.NewFragCache(0)
	ir := func(i int) plan.Node { return in.ir(0, w.warm+i) }
	facadeRun := func(node plan.Node) (time.Duration, error) {
		t0 := time.Now()
		sess := in.db.Session(repro.WithEps(eps), repro.WithSharedCache(prob), repro.WithSharedFragCache(frags))
		_, err := repro.Collect(sess.Query(node).Run(t.ctx))
		return time.Since(t0), err
	}
	for i := -w.warm; i < 0; i++ {
		_, err := facadeRun(ir(i))
		t.attempt("façade warm-up", err)
	}
	q := func(i int) handQuery {
		return handQuery{name: fmt.Sprintf("op %d", i), db: in.db, node: ir(i), eps: eps, prob: prob, frags: frags}
	}
	t.buildP50(n, []handQuery{q(0)})

	// Each op runs four times in turn, on one client: over loopback SSE
	// (the reference op, the counts, the client's milestones as spans and
	// the allocations per request), in batch mode (Accept:
	// application/json), through the façade, and through the replay with
	// its spans. Taking turns keeps the host's slow and fast phases out
	// of the differences.
	from := len(t.tr.spans)
	counts := counter{dbs: []*repro.DB{in.db}}
	var sse, firstByte, batch, facade []float64
	var mallocs uint64
	var m0, m1 runtime.MemStats
	outs := make([]handOut, n)
	for i := 0; i < n; i++ {
		node, check := in.request(0, w.warm+i)
		body := cl.body(node, nil, nil)
		// The connection has sat idle through the façade and replay turns,
		// and the first request on an idle connection reaches the handler
		// 3-4 ms late here. The measured clients send back to back and
		// never see that, so a health check takes it instead of the op.
		if err := cl.poke(t.ctx); err != nil {
			return err
		}
		runtime.ReadMemStats(&m0)
		counts.around(func() {
			at := time.Since(t.tr.t0)
			r, err := cl.query(t.ctx, body)
			if err == nil {
				err = r.failure()
			}
			if err == nil {
				var gs []got
				if gs, err = r.got(); err == nil {
					err = check(gs)
				}
			}
			t.attempt("SSE op", err)
			sse = append(sse, ms(r.done))
			firstByte = append(firstByte, ms(r.meta))
			id := len(t.tr.spans)
			t.tr.spans = append(t.tr.spans,
				span{ID: id, Parent: -1, Op: i, Name: "serve.request", Start: int64(at), End: int64(at + r.done)},
				span{ID: id + 1, Parent: id, Op: i, Name: "serve.first_byte", Start: int64(at), End: int64(at + r.meta)},
				span{ID: id + 2, Parent: id, Op: i, Name: "serve.first_answer", Start: int64(at + r.meta), End: int64(at + r.first)},
				span{ID: id + 3, Parent: id, Op: i, Name: "serve.rest", Start: int64(at + r.first), End: int64(at + r.done)},
			)
		})
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs

		d, err := cl.batch(t.ctx, body)
		t.attempt("batch op", err)
		batch = append(batch, ms(d))

		d, err = facadeRun(ir(i))
		t.attempt("façade op", err)
		facade = append(facade, ms(d))

		op := t.tr.begin("op", i, -1)
		outs[i], err = t.hand(i, op, q(i))
		t.tr.end(op)
		t.attempt("traced op", err)
	}
	t.setCounts(counts.sum, n)
	t.set("serve.first_byte_ms_p50", median(firstByte))
	t.set("serve.allocs_per_request", float64(mallocs)/float64(n))
	t.set("serve.batch_json_ms_p50", median(batch))
	// Every op went through both paths in turn, so the overhead is taken
	// per op: the difference of the two medians would also carry the
	// spread between windows.
	wire := make([]float64, n)
	for i := range wire {
		wire[i] = sse[i] - facade[i]
	}
	t.set("serve.wire_overhead_ms_p50", median(wire))
	t.set("formula.fragcache_entries", float64(frags.CacheStats().Entries))
	// On the serve workloads the residual against the reference op (the
	// SSE request) is serve.wire_overhead, not repro.other.
	_, ops := t.layerP50s(from)
	t.set("bench.trace_overhead_frac", median(ops)/median(facade)-1)
	t.rankCounts(outs)

	serveAfter, err := in.srv.metrics(t.ctx)
	if err != nil {
		return err
	}
	sd := serveAfter.Sub(serveBefore)
	t.set("serve.degraded", float64(sd.Degraded))
	t.set("serve.rejected", float64(sd.Rejected))
	t.set("serve.sessions", float64(serveAfter.SessionsActive))
	if !small {
		t.refinerSides(in.db.Space(), in.db, outs, frags)
		return t.deadlineProbe(in, cl)
	}
	return nil
}

// deadlineProbe sends ranked eps: 0 requests with a 50 ms budget over a
// denser 8×8 variant of hard_rst and reports how long after the budget
// the done event arrives. Only the ranked path is probed: it honours
// deadlines today; the exact path's cancellation is not sticky on ≥ 2
// CPUs (ROADMAP item 1), so such a request would burn a core for the
// rest of the run.
func (t *traced) deadlineProbe(in *serveInst, cl *sseClient) error {
	d := genHardRSTInto(in.db.Space(), t.seed, "8", 8, rstWindow)
	in.db.Register(d.X, d.Y, d.E)
	zero := 0.0
	body := cl.body(windowWireOn("8", 0), &zero, &serve.Budget{TimeoutMS: deadlineMS})
	var overrun []float64
	for i := 0; i < deadlineProbes; i++ {
		r, err := cl.query(t.ctx, body)
		t.attempt("deadline probe", err)
		overrun = append(overrun, ms(r.done)-deadlineMS)
	}
	t.set("serve.deadline_overrun_ms_p50", median(overrun))
	return nil
}
