package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro"
	"repro/internal/pdb"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/tpch"
)

// opResult is one closed-loop op as its client saw it. total and first
// are measured around the calls into the system only; building the
// request before and checking the answers after are outside both.
type opResult struct {
	total time.Duration
	// first is op start → first answer delivered. On the two tpch
	// workloads, whose op is a pass over several queries, it is the sum
	// over the pass of each query's start → first answer: the part of the
	// pass during which the client held no answer of the running query.
	first time.Duration
	err   error
}

// instance is one set-up workload: data generated, DB built, server
// listening, caches warmed. op must be safe for one goroutine per
// client.
type instance interface {
	op(ctx context.Context, client, i int) opResult
	// verify computes the cross-route oracle that every later op is
	// checked against. It is not part of set-up time.
	verify(ctx context.Context) error
	close() error
}

// setupTimes is the breakdown of one set-up, for the per-layer table.
type setupTimes struct {
	generate   time.Duration // tpch.generate_s: data generation (TPC-H or the benchmark's own)
	newDB      time.Duration // repro.newdb_s
	serveStart time.Duration // serve.start_s: NewServer + listen + client connections
}

// workload is one row of the workload table. The why strings are the
// ones BENCHMARK.json carries.
type workload struct {
	name    string
	why     string
	clients int
	// warm is how many op indices per client set-up consumes as warm-up;
	// the measured phase starts after them.
	warm int
	// raw reports the workload's times as measured, without the host-speed
	// normalisation of calibrate.go: set where ten runs did not spread less
	// normalised than raw (README.md has both per workload).
	raw   bool
	setup func(seed int64) (instance, setupTimes, error)
}

var workloads = []workload{
	{
		name: "tpch_safe", clients: 1, setup: setupTPCHSafe,
		why: "TI TPC-H tractable queries on the safe/IQ routes: plan+sprout do all the work, so it bypasses every core/rank/cache change",
	},
	{
		name: "tpch_lineage", clients: 1, setup: setupTPCHLineage,
		why: "Forced-lineage TPC-H and Zipf skew join at eps 1e-2: lineage materialisation, interning, sharding and batch conf() dominate",
	},
	{
		name: "rank_cold", clients: 1, setup: setupRankCold,
		why: "Streamed top-10 over 64 unsafe R-S-T groups, fresh session per op: leaf prepare, Refiner.Step and rank scheduling on empty caches",
	},
	{
		name: "rank_warm_serve", clients: 2, warm: rstSweep + warmupRank, raw: true, setup: setupRankWarmServe,
		why: "The rank_cold queries over loopback SSE on two named sessions with resident caches: the production path, caches read not filled",
	},
	{
		name: "serve_small", clients: 2, warm: warmupSmall, setup: setupServeSmall,
		why: "Tiny ranked query over loopback SSE: wire decode, admission, session lookup, facade build and SSE flush are the whole cost",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// dataSeed generates every dataset but serve_small's. The data is fixed
// and --seed draws the op sequence — which windows the rank workloads
// query, in which order a tpch pass runs its queries — the way TPC-H
// itself fixes the data per scale factor and seeds the query streams. A
// dataset drawn from --seed made the work per op differ by 5-7 % from
// seed to seed (the number of suppliers in B21's nation, the x and y
// probabilities every hard_rst group shares), which would have forced
// every count metric's bound that wide; with the data fixed, two seeds
// differ only by which ops they sample.
const dataSeed = 42

// ---- tpch_safe and tpch_lineage ----

// Dataset sizes. The issue sized the tpch workloads for 20-25 s runs
// (SF 0.02 / 0.005); the contract's run length is shorter, so TPC-H is
// shrunk until one pass takes 35-50 ms and a run measures 200 passes —
// the least p95 needs to keep ten samples beyond it — even in the host's
// slow phases. The skew join keeps the issue's size: it is what holds
// plan.lineage above half of tpch_lineage's pass.
const (
	safeSF      = 0.01
	lineageSF   = 0.0015
	skewRows    = 24000
	skewKeys    = 480
	skewZipf    = 1.2
	lineageEps  = 1e-2
	warmupSmall = 300 // serve_small warm-up requests per client
	warmupRank  = 8   // rank_warm_serve random warm-up requests per client, after the covering sweep
)

// tq is one query of a tpch pass.
type tq struct {
	name string
	db   *repro.DB
	node plan.Node
}

type tpchInst struct {
	qs []tq
	// orders[i%len] is the order pass i runs the queries in.
	orders [][]int
	forced bool
	eps    float64
	opts   []repro.SessionOption
	want   []expected
	// again regenerates the same queries over a second copy of the data.
	// The oracle runs there, so that its forced-lineage evaluations leave
	// nothing behind (pooled interners, pool statistics) in the measured
	// DB.
	again func() ([]tq, setupTimes)
}

// passOrders is the op list of a tpch workload: n seeded permutations of
// the pass's queries, a pure function of (seed, queries, n).
func passOrders(seed int64, queries, n int) [][]int {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int, n)
	for i := range out {
		out[i] = rng.Perm(queries)
	}
	return out
}

func newTPCHDB(t *tpch.DB) *repro.DB {
	return repro.NewDB(t.Space, t.Region, t.Nation, t.Supplier, t.Customer, t.Part, t.PartSupp, t.Orders, t.Lineitem)
}

// pick returns the catalog entries with the given names, in that order.
func pick(cat []tpch.CatalogEntry, db *repro.DB, names ...string) []tq {
	var out []tq
	for _, n := range names {
		for _, e := range cat {
			if e.Name == n {
				out = append(out, tq{name: n, db: db, node: e.Node})
			}
		}
	}
	return out
}

func safeQueries() ([]tq, setupTimes) {
	var st setupTimes
	t0 := time.Now()
	t := tpch.Generate(tpch.Config{SF: safeSF, ProbHigh: 1, Seed: dataSeed})
	st.generate = time.Since(t0)
	t0 = time.Now()
	db := newTPCHDB(t)
	st.newDB = time.Since(t0)
	return pick(t.Catalog(), db, "Q1", "B1", "B6", "Q15", "B16", "B17", "IQB1", "IQB4", "IQ6"), st
}

func setupTPCHSafe(seed int64) (instance, setupTimes, error) {
	qs, st := safeQueries()
	return &tpchInst{qs: qs, orders: passOrders(seed, len(qs), passListLen), again: safeQueries}, st, nil
}

// lisuppIR is lineitem ⋈ supplier grouped by s_nationkey: the join
// driven by the largest table, which the planner shards.
func lisuppIR(t *tpch.DB) plan.Node {
	return &plan.GroupLineage{
		Input: &plan.EquiJoin{
			Left: &plan.Scan{Rel: t.Lineitem}, Right: &plan.Scan{Rel: t.Supplier},
			LeftCol: t.Lineitem.MustCol("l_suppkey"), RightCol: t.Supplier.MustCol("s_suppkey"),
		},
		Cols: []int{len(t.Lineitem.Cols) + t.Supplier.MustCol("s_nationkey")},
	}
}

func lineageQueries() ([]tq, setupTimes) {
	var st setupTimes
	t0 := time.Now()
	t := tpch.Generate(tpch.Config{SF: lineageSF, ProbHigh: 1, Seed: dataSeed})
	sk := tpch.GenerateSkewed(skewRows, skewKeys, skewZipf, dataSeed)
	st.generate = time.Since(t0)
	t0 = time.Now()
	db := newTPCHDB(t)
	sdb := repro.NewDB(sk.Space, sk.Fact, sk.Dim)
	st.newDB = time.Since(t0)
	qs := pick(t.Catalog(), db, "B2", "B20", "B21", "Q1", "Q15")
	return append(qs, tq{"lisupp", db, lisuppIR(t)}, tq{"skew", sdb, sk.JoinIR()}), st
}

func setupTPCHLineage(seed int64) (instance, setupTimes, error) {
	qs, st := lineageQueries()
	return &tpchInst{
		qs: qs, orders: passOrders(seed, len(qs), passListLen), forced: true, eps: lineageEps, again: lineageQueries,
		opts: []repro.SessionOption{repro.WithForceLineage(), repro.WithEps(lineageEps)},
	}, st, nil
}

func (in *tpchInst) op(ctx context.Context, _, i int) opResult {
	var res opResult
	answers := make([][]repro.Answer, len(in.qs))
	start := time.Now()
	for _, qi := range in.orders[i%len(in.orders)] {
		q := in.qs[qi]
		qStart := time.Now()
		for a, err := range q.db.Session(in.opts...).Query(q.node).Run(ctx) {
			if err != nil {
				res.err = fmt.Errorf("%s: %w", q.name, err)
				break
			}
			if len(answers[qi]) == 0 {
				res.first += time.Since(qStart)
			}
			answers[qi] = append(answers[qi], a)
		}
		if len(answers[qi]) == 0 {
			res.first += time.Since(qStart) // an empty answer set is known when the stream ends
		}
	}
	res.total = time.Since(start)
	for qi, q := range in.qs {
		if res.err != nil {
			break
		}
		if err := checkAnswers(in.want[qi], gotFromAnswers(answers[qi]), in.eps); err != nil {
			res.err = fmt.Errorf("%s: %w", q.name, err)
		}
	}
	return res
}

func (in *tpchInst) verify(ctx context.Context) error {
	in.want = make([]expected, len(in.qs))
	again, _ := in.again()
	for qi, q := range again {
		want, err := crossRoute(ctx, q.db, q.node, in.forced)
		if err != nil {
			return fmt.Errorf("oracle for %s: %w", q.name, err)
		}
		in.want[qi] = want
	}
	return nil
}

func (in *tpchInst) close() error { return nil }

// ---- rank_cold ----

// windowStarts is client c's list of window starts: a pure function of
// (seed, client, n). Ops cycle through it.
func windowStarts(seed int64, client, n int) []int64 {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(rng.Intn(rstGroups - rstWindow + 1))
	}
	return out
}

// Op lists are cycled through; both are longer than any run here gets.
const (
	opListLen   = 4096 // window starts per client
	passListLen = 512  // query orders of a tpch workload
)

type rankColdInst struct {
	d      *hardRST
	db     *repro.DB
	starts []int64
	truth  map[pdb.Value]float64
}

func setupRankCold(seed int64) (instance, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	d := genHardRST(dataSeed, rstSide, rstGroups)
	st.generate = time.Since(t0)
	t0 = time.Now()
	db := repro.NewDB(d.Space, d.X, d.Y, d.E)
	st.newDB = time.Since(t0)
	return &rankColdInst{d: d, db: db, starts: windowStarts(seed, 0, opListLen)}, st, nil
}

func (in *rankColdInst) op(ctx context.Context, _, i int) opResult {
	var res opResult
	a := in.starts[i%len(in.starts)]
	var answers []repro.Answer
	start := time.Now()
	sess := in.db.Session(repro.WithEps(rstEps))
	for ans, err := range sess.Query(in.d.windowIR(a)).Run(ctx) {
		if err != nil {
			res.err = err
			break
		}
		if len(answers) == 0 {
			res.first = time.Since(start)
		}
		answers = append(answers, ans)
	}
	res.total = time.Since(start)
	if res.err == nil {
		res.err = checkTopK(window(in.truth, a), gotFromAnswers(answers), rstTopK, rstEps)
	}
	if res.err != nil {
		res.err = fmt.Errorf("window %d: %w", a, res.err)
	}
	return res
}

func (in *rankColdInst) verify(context.Context) error {
	in.truth = rstOracle(in.d)
	return nil
}

func (in *rankColdInst) close() error { return nil }

// ---- rank_warm_serve and serve_small ----

// serveInst drives a loopback query service with one SSE client per
// named session.
type serveInst struct {
	srv     *server
	db      *repro.DB
	clients []*sseClient
	// request returns client c's i-th query and the oracle check of its
	// answers; ir is the same query as plan IR, for the traced pass.
	request func(c, i int) (*serve.Node, func([]got) error)
	ir      func(c, i int) plan.Node
	oracle  func()
}

func (in *serveInst) op(ctx context.Context, c, i int) opResult {
	var res opResult
	node, check := in.request(c, i)
	body := in.clients[c].body(node, nil, nil)
	r, err := in.clients[c].query(ctx, body)
	res.total, res.first = r.done, r.first
	if err == nil {
		err = r.failure()
	}
	if err == nil && check != nil {
		var gs []got
		if gs, err = r.got(); err == nil {
			err = check(gs)
		}
	}
	res.err = err
	return res
}

func (in *serveInst) verify(context.Context) error {
	in.oracle()
	return nil
}

func (in *serveInst) close() error {
	for _, c := range in.clients {
		c.close()
	}
	return in.srv.close()
}

// warm runs n ops per client, all clients at once, starting at op from.
// The oracle is not set yet, so warm-up ops are checked for transport
// failures only.
func (in *serveInst) warm(ctx context.Context, from, n int) error {
	errs := make(chan error, len(in.clients)) // one send per client
	for c := range in.clients {
		go func() {
			for i := from; i < from+n; i++ {
				if r := in.op(ctx, c, i); r.err != nil {
					errs <- fmt.Errorf("warm-up op %d of client %d: %w", i, c, r.err)
					return
				}
			}
			errs <- nil
		}()
	}
	var first error
	for range in.clients {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func startClients(srv *server, n int) []*sseClient {
	cs := make([]*sseClient, n)
	for c := range cs {
		cs[c] = newSSEClient(srv.base, fmt.Sprintf("client-%d", c))
	}
	return cs
}

// rstSweep is the number of disjoint windows that cover every group.
const rstSweep = rstGroups / rstWindow

func setupRankWarmServe(seed int64) (instance, setupTimes, error) {
	const clients = 2
	var st setupTimes
	t0 := time.Now()
	d := genHardRST(dataSeed, rstSide, rstGroups)
	st.generate = time.Since(t0)
	t0 = time.Now()
	db := repro.NewDB(d.Space, d.X, d.Y, d.E)
	st.newDB = time.Since(t0)
	t0 = time.Now()
	srv, err := startServer(db, repro.ServeConfig{DefaultEps: rstEps})
	if err != nil {
		return nil, st, err
	}
	in := &serveInst{srv: srv, db: db, clients: startClients(srv, clients)}
	st.serveStart = time.Since(t0)

	starts := make([][]int64, clients)
	for c := range starts {
		starts[c] = windowStarts(seed, c, opListLen)
	}
	var truth map[pdb.Value]float64
	in.oracle = func() { truth = rstOracle(d) }
	// Ops [0, rstSweep) are the covering sweep — every group's fragments
	// become resident in each session — and the random windows follow.
	start := func(c, i int) int64 {
		if i < rstSweep {
			return int64(i * rstWindow)
		}
		return starts[c][(i-rstSweep)%opListLen]
	}
	in.ir = func(c, i int) plan.Node { return d.windowIR(start(c, i)) }
	in.request = func(c, i int) (*serve.Node, func([]got) error) {
		a := start(c, i)
		var check func([]got) error
		if truth != nil {
			check = func(gs []got) error {
				if err := checkTopK(window(truth, a), gs, rstTopK, rstEps); err != nil {
					return fmt.Errorf("window %d: %w", a, err)
				}
				return nil
			}
		}
		return windowWire(a), check
	}
	if err := in.warm(context.Background(), 0, rstSweep+warmupRank); err != nil {
		_ = in.close() // the warm-up failure is the error to report
		return nil, st, err
	}
	return in, st, nil
}

func setupServeSmall(seed int64) (instance, setupTimes, error) {
	const clients = 2
	var st setupTimes
	t0 := time.Now()
	d := genSmall(seed)
	st.generate = time.Since(t0)
	t0 = time.Now()
	db := repro.NewDB(d.Space, d.Orders, d.Disputes)
	st.newDB = time.Since(t0)
	t0 = time.Now()
	srv, err := startServer(db, repro.ServeConfig{DefaultEps: smallEps})
	if err != nil {
		return nil, st, err
	}
	in := &serveInst{srv: srv, db: db, clients: startClients(srv, clients)}
	st.serveStart = time.Since(t0)

	var truth expected
	in.oracle = func() { truth = smallOracle(d) }
	query := smallWire()
	in.ir = func(int, int) plan.Node { return d.smallIR() }
	in.request = func(int, int) (*serve.Node, func([]got) error) {
		if truth == nil {
			return query, nil
		}
		return query, func(gs []got) error { return checkTopK(truth, gs, smallTopK, smallEps) }
	}
	if err := in.warm(context.Background(), 0, warmupSmall); err != nil {
		_ = in.close() // the warm-up failure is the error to report
		return nil, st, err
	}
	return in, st, nil
}
