// Command bench is the repository's one end-to-end + per-layer
// benchmark: five closed-loop workloads, the same end-to-end metrics on
// each, every answer checked against a cross-route oracle, and a
// separate traced pass that attributes time to layers. README.md in this
// directory has the tables; ../BENCHMARK.json is the driver's view of
// the same definitions.
//
//	bash bench/run.sh                          every workload, measured then traced
//	bash bench/run.sh -check                   two sets back to back, compared against the bounds
//	bash bench/run.sh -workload rank_cold -seed 3 -seconds 20 -trace 0
//
// The last form is what the driver runs; its last stdout line is one
// JSON object {correct, attempted, failed, metrics}.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metricDef is one row of a metric table. bound is the share of the
// parent's median by which an end-to-end metric may worsen; exact marks
// a per-layer count that must repeat exactly at a fixed seed.
type metricDef struct {
	name, unit, better string
	bound              float64
	exact              bool
}

// endToEnd is measured with tracing off, the same names on every
// workload. Latency and throughput are client-observed and reported at
// reference host speed (calibrate.go); setup_s is raw. One bound serves
// all five workloads, so it follows the widest of their run-to-run
// spreads (README.md has them per workload): at least three times it
// where the contract's cap of 0.25 allows.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "op_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "op_ms_p95", unit: "ms", better: "lower", bound: 0.25},
	{name: "first_answer_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "ok_frac", unit: "ratio", better: "higher", bound: 0.001},
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.04},
	{name: "alloc_kb_per_op", unit: "KiB", better: "lower", bound: 0.04},
	{name: "heap_live_mb", unit: "MiB", better: "lower", bound: 0.05},
}

const (
	// setup_s is the median of back-to-back full set-ups: at least
	// minSetups, then more until setupSpend has gone into them or
	// maxSetups is reached, so that a 20 ms set-up is not read from three
	// samples and a 1 s one is not repeated fifteen times. The first
	// set-up of a process is not among them: it also grows the heap and
	// faults the code in, and ran 30 % slower than the ones after it.
	minSetups  = 4
	maxSetups  = 15
	setupSpend = 1500 * time.Millisecond

	opCeiling = 30 * time.Second // one op longer than this fails the run instead of hanging it
	// minOps is the least a run must complete: below it op_ms_p95 would not
	// have ten samples beyond it. A run that has fewer when its time is up
	// goes on until it has them, for at most lateFactor times its length,
	// and then fails instead of reporting a lower percentile under that
	// name.
	minOps         = 200
	lateFactor     = 3
	defaultSeconds = 20
	outDir         = "bench/out"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a percentile (0 for other metrics).
	N int `json:"n,omitempty"`
}

// runResult is one run of one workload, measured or traced.
type runResult struct {
	attempted, failed int
	metrics           map[string]value
	failures          []string // the first few, with query and seed
	notes             []string // human-only remarks (the host speed factor and the raw median)
}

const maxFailuresKept = 5

// set records metric name, a row of defs, with that row's unit.
func (r *runResult) set(defs []metricDef, name string, v float64, n int) {
	for _, d := range defs {
		if d.name == name {
			r.metrics[name] = value{Value: v, Unit: d.unit, N: n}
			return
		}
	}
	// invariant: every name set is a row of the table it is set from.
	panic("bench: unknown metric " + name)
}

func (r *runResult) fail(seed int64, err error) {
	r.failed++
	if len(r.failures) < maxFailuresKept {
		r.failures = append(r.failures, fmt.Sprintf("seed %d: %v", seed, err))
	}
}

// checkHost refuses a workload that wants more clients than the host
// has CPUs: the generator and the server share the process, and an
// oversubscribed closed loop measures the scheduler.
func checkHost(w workload) error {
	if n := runtime.NumCPU(); w.clients > n {
		return fmt.Errorf("workload %s drives %d clients but the host has %d CPUs", w.name, w.clients, n)
	}
	return nil
}

// setUp performs the full set-up back to back (once when !repeat),
// keeping the last instance, and returns the median set-up time and the
// last set-up's breakdown. Tearing the earlier instances down is not
// set-up.
func setUp(w workload, seed int64, repeat bool) (instance, float64, setupTimes, error) {
	var (
		inst  instance
		st    setupTimes
		times []float64
		spent time.Duration
	)
	for i := 0; i == 0 || repeat && i < maxSetups && (i < minSetups || spent < setupSpend); i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, 0, st, fmt.Errorf("tearing down set-up %d: %w", i, err)
			}
		}
		t0 := time.Now()
		var err error
		inst, st, err = w.setup(seed)
		if err != nil {
			return nil, 0, st, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		d := time.Since(t0)
		spent += d
		times = append(times, d.Seconds())
	}
	if len(times) > 1 {
		times = times[1:]
	}
	return inst, median(times), st, nil
}

// runMeasured is the untraced pass: set-up, oracle, then every client
// looping over its ops for the given time.
func runMeasured(ctx context.Context, w workload, seed int64, seconds float64) (runResult, error) {
	res := runResult{metrics: make(map[string]value)}
	if err := checkHost(w); err != nil {
		return res, err
	}
	inst, setupS, _, err := setUp(w, seed, true)
	if err != nil {
		return res, err
	}
	if err := inst.verify(ctx); err != nil {
		_ = inst.close() // the oracle failure is the error to report
		return res, fmt.Errorf("oracle: %w", err)
	}

	type sample struct{ total, first float64 }
	var (
		mu      sync.Mutex
		samples []sample
		cal     []float64 // client 0's calibration kernel times, ms
		rate    float64   // Σ over clients of ops ÷ (the client's wall − its pauses for the kernel)
		// gate pauses every client while the kernel runs: clients hold it
		// shared during an op, client 0 takes it exclusively to calibrate,
		// so the kernel times the host and not the workload's own load.
		gate    sync.RWMutex
		aborted atomic.Bool
		okOps   atomic.Int64
		wg      sync.WaitGroup
		m0, m1  runtime.MemStats
	)
	runtime.GC()
	var calMallocs, calBytes uint64
	if !w.raw {
		calMallocs, calBytes = calCost()
	}
	runtime.ReadMemStats(&m0)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	// A host slow enough to complete fewer than minOps in time gets up to
	// lateFactor times as long before the run is given up.
	running := func() bool {
		now := time.Now()
		return now.Before(deadline) || okOps.Load() < minOps && now.Sub(start) < lateFactor*deadline.Sub(start)
	}
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			var errs []error
			var myCal []float64
			var paused time.Duration
			nextCal := start
			for i := w.warm; running() && !aborted.Load(); i++ {
				t0 := time.Now()
				if c == 0 && !w.raw && !t0.Before(nextCal) {
					gate.Lock()
					myCal = append(myCal, ms(calibrate()))
					gate.Unlock()
					nextCal = time.Now().Add(calEvery)
				}
				gate.RLock()
				paused += time.Since(t0)
				opCtx, cancel := context.WithTimeout(ctx, opCeiling)
				r := inst.op(opCtx, c, i)
				cancel()
				gate.RUnlock()
				if r.err != nil {
					errs = append(errs, fmt.Errorf("%s op %d of client %d: %w", w.name, i, c, r.err))
					if r.total >= opCeiling || errors.Is(r.err, context.DeadlineExceeded) {
						aborted.Store(true)
					}
					continue
				}
				mine = append(mine, sample{ms(r.total), ms(r.first)})
				okOps.Add(1)
			}
			mu.Lock()
			samples = append(samples, mine...)
			rate += float64(len(mine)) / (time.Since(start) - paused).Seconds()
			if c == 0 {
				cal = myCal
			}
			res.attempted += len(mine) + len(errs)
			for _, e := range errs {
				res.fail(seed, e)
			}
			mu.Unlock()
		}()
	}
	// The ceiling also covers an op that ignores its context: the run is
	// abandoned and the process exits non-zero with the clients still
	// stuck, instead of waiting for them.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(lateFactor*time.Until(deadline) + opCeiling + time.Second):
		return res, fmt.Errorf("%s: an op exceeded the %v ceiling and did not return", w.name, opCeiling)
	}
	runtime.ReadMemStats(&m1)
	if aborted.Load() {
		return res, fmt.Errorf("%s: an op hit the %v ceiling: %s", w.name, opCeiling, strings.Join(res.failures, "; "))
	}
	ops := len(samples)
	if ops < minOps {
		return res, fmt.Errorf("%s: %d ops completed (%d failed), fewer than the %d op_ms_p95 needs for ten samples beyond it",
			w.name, ops, res.failed, minOps)
	}
	totals, firsts := make([]float64, ops), make([]float64, ops)
	for i, s := range samples {
		totals[i], firsts[i] = s.total, s.first
	}
	totals, firsts = sorted(totals), sorted(firsts)
	// Latency and throughput are reported at reference host speed
	// (calibrate.go) unless the workload is a raw one; the raw median goes
	// beside the table.
	speed := 1.0
	if !w.raw {
		speed = speedFactor(cal)
		res.notes = append(res.notes, fmt.Sprintf("host speed factor %.3f: calibration kernel median %.2f ms (n=%d), reference %.2f ms; raw op_ms_p50 %.4g",
			speed, median(cal), len(cal), ms(calRef), quantile(totals, 0.5)))
	}
	p50, p95, first50 := speed*quantile(totals, 0.5), speed*quantile(totals, 0.95), speed*quantile(firsts, 0.5)
	// The live heap is what the system retains — relations, pinned caches
	// — so the benchmark's own latency samples go before it is read, and
	// the collector runs twice: a sync.Pool's contents survive one cycle,
	// and whether an automatic cycle had just run made the reading differ
	// by 6 % from run to run.
	samples, totals, firsts = nil, nil, nil
	runtime.GC()
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	if err := inst.close(); err != nil {
		return res, fmt.Errorf("tear-down: %w", err)
	}
	n := float64(ops)
	set := func(name string, v float64, n int) { res.set(endToEnd, name, v, n) }
	set("setup_s", setupS, 0)
	set("op_ms_p50", p50, ops)
	set("op_ms_p95", p95, ops)
	set("first_answer_ms_p50", first50, ops)
	set("ops_per_s", rate/speed, 0)
	set("ok_frac", float64(res.attempted-res.failed)/float64(res.attempted), 0)
	kernels := uint64(len(cal))
	set("allocs_per_op", float64(m1.Mallocs-m0.Mallocs-kernels*calMallocs)/n, 0)
	set("alloc_kb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc-kernels*calBytes)/1024/n, 0)
	set("heap_live_mb", float64(m2.HeapAlloc)/(1<<20), 0)
	return res, nil
}

// environment is recorded with every result so that two result files
// can be told apart.
type environment struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func currentEnvironment(seed int64, seconds float64) environment {
	// The driver's checkout is not a git repository; asking git there
	// would make it search the directories above.
	commit := "unknown"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return environment{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Commit: commit, Seed: seed, Seconds: seconds,
	}
}

// printRun prints one run's metrics as a human table, in table order.
func printRun(w workload, kind string, defs []metricDef, r runResult) {
	fmt.Printf("== %s (%s, %d client(s)): %d ops attempted, %d failed\n", w.name, kind, w.clients, r.attempted, r.failed)
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			continue
		}
		n := ""
		if v.N > 0 {
			n = fmt.Sprintf("  (n=%d)", v.N)
		}
		fmt.Printf("  %-34s %14.6g %-6s%s\n", d.name, v.Value, v.Unit, n)
	}
	for _, s := range r.notes {
		fmt.Println("  note:", s)
	}
	for _, s := range r.failures {
		fmt.Println("  FAILED:", s)
	}
}

// contractLine is the driver's last-line JSON object.
func contractLine(defs []metricDef, r runResult) (string, error) {
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]value)}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = value{Value: v.Value, Unit: v.Unit} // the driver gets value and unit only
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// runSet runs every workload, measured then traced, and returns
// workload → metric → value.
func runSet(ctx context.Context, seed int64, seconds float64) (map[string]map[string]value, int, error) {
	all := make(map[string]map[string]value)
	failed := 0
	for _, w := range workloads {
		m, err := runMeasured(ctx, w, seed, seconds)
		if err != nil {
			return all, failed, err
		}
		printRun(w, "measured", endToEnd, m)
		t, err := runTraced(ctx, w, seed)
		if err != nil {
			return all, failed, err
		}
		printRun(w, "traced", perLayer, t)
		failed += m.failed + t.failed
		all[w.name] = m.metrics
		for k, v := range t.metrics {
			all[w.name][k] = v
		}
	}
	return all, failed, nil
}

// check runs two full sets of the same code and compares them the way
// the driver compares two sets of runs: on no workload may an end-to-end
// metric of the second set be worse than the first set's by more than
// the metric's bound, and every exact count must repeat exactly.
func check(ctx context.Context, seed int64, seconds float64) error {
	var sets [2]map[string]map[string]value
	for i := range sets {
		fmt.Printf("#### set %d of 2\n", i+1)
		s, failed, err := runSet(ctx, seed, seconds)
		if err != nil {
			return err
		}
		if failed > 0 {
			return fmt.Errorf("set %d: %d ops failed", i+1, failed)
		}
		sets[i] = s
	}
	bad := 0
	fmt.Printf("#### self-check: set 1 vs set 2\n%-16s %-24s %14s %14s %9s %7s\n", "workload", "metric", "set1", "set2", "worse by", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := sets[0][w.name][d.name].Value, sets[1][w.name][d.name].Value
			worse := (b - a) / math.Abs(a)
			if d.better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > d.bound {
				verdict, bad = "  EXCEEDS", bad+1
			}
			fmt.Printf("%-16s %-24s %14.6g %14.6g %+8.2f%% %6.1f%%%s\n", w.name, d.name, a, b, 100*worse, 100*d.bound, verdict)
		}
		for _, d := range perLayer {
			a, b := sets[0][w.name][d.name].Value, sets[1][w.name][d.name].Value
			if d.exact && a != b {
				fmt.Printf("%-16s %-24s %14.6g %14.6g   exact count differs\n", w.name, d.name, a, b)
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d comparisons outside their bound", bad)
	}
	fmt.Println("self-check passed: no end-to-end metric worse by more than its bound, every exact count repeated")
	return nil
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and end with the driver's JSON line (default: all workloads, measured then traced)")
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Float64("seconds", defaultSeconds, "length of each measured phase")
		trace   = flag.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 makes the traced pass for the per-layer metrics")
		doCheck = flag.Bool("check", false, "run two full sets and compare them against the bounds")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *doCheck); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace int, doCheck bool) error {
	if seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	ctx := context.Background()
	env := currentEnvironment(seed, seconds)
	fmt.Printf("bench: %s GOMAXPROCS=%d nproc=%d commit=%s seed=%d seconds=%g\n",
		env.GoVersion, env.GOMAXPROCS, env.NumCPU, env.Commit, env.Seed, env.Seconds)
	switch {
	case doCheck:
		return check(ctx, seed, seconds)
	case name == "":
		all, failed, err := runSet(ctx, seed, seconds)
		if err != nil {
			return err
		}
		if err := writeJSON(outDir, "result.json", struct {
			Env     environment                 `json:"env"`
			Results map[string]map[string]value `json:"results"`
		}{env, all}); err != nil {
			return err
		}
		fmt.Println("wrote", filepath.Join(outDir, "result.json"))
		if failed > 0 {
			return fmt.Errorf("%d ops failed", failed)
		}
		return nil
	}
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	var (
		r   runResult
		err error
	)
	defs, kind := endToEnd, "measured"
	if trace != 0 {
		defs, kind = perLayer, "traced"
		r, err = runTraced(ctx, w, seed)
	} else {
		r, err = runMeasured(ctx, w, seed, seconds)
	}
	if err != nil {
		return err
	}
	printRun(w, kind, defs, r)
	line, err := contractLine(defs, r)
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}
