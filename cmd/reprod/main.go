// Command reprod is the query service daemon: a probabilistic database
// behind HTTP, streaming anytime confidence answers.
//
//	reprod -addr :8080 -dataset demo -eps 0.01
//
// Endpoints (see internal/serve and the README's Serving section):
//
//	POST /v1/query            SSE stream (or JSON with Accept: application/json)
//	GET  /v1/query/{id}/trace EXPLAIN ANALYZE of a recent query
//	GET  /v1/sessions         live affinity sessions
//	GET  /metrics             engine + serving metrics
//	GET  /healthz             readiness (503 once draining)
//	GET  /debug/vars          expvar, engine snapshot under -expvar name
//
// Datasets: -dataset demo is the quickstart's orders/disputes toy;
// -dataset tpch generates the probabilistic TPC-H instance at
// -sf/-prob-high/-seed.
//
// -fragcache PATH persists the shared prepared-fragment cache across
// restarts: loaded (if present and version-compatible) at startup,
// saved on graceful shutdown — a restarted daemon starts with the
// previous run's leaf decompositions already prepared.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/fault"
	"repro/internal/pdb"
	"repro/internal/tpch"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		dataset     = flag.String("dataset", "demo", "dataset to serve: demo or tpch")
		sf          = flag.Float64("sf", 0.01, "TPC-H scale factor (dataset=tpch)")
		probHigh    = flag.Float64("prob-high", 1.0, "upper bound of the tuple-probability distribution (dataset=tpch)")
		seed        = flag.Int64("seed", 1, "generator seed (dataset=tpch)")
		eps         = flag.Float64("eps", 0.01, "default ε for requests without an explicit one (0 = exact)")
		degradedEps = flag.Float64("degraded-eps", 0, "wider ε served under admission pressure (0 = serve default)")
		maxInflight = flag.Int("max-inflight", 0, "hard admission ceiling, 429 past it (0 = 4×GOMAXPROCS)")
		degradeAt   = flag.Int("degrade-at", 0, "soft threshold where degradation starts (0 = half the ceiling)")
		sessionTTL  = flag.Duration("session-ttl", 5*time.Minute, "idle expiry of named sessions")
		budgetWall  = flag.Duration("budget-timeout", 10*time.Second, "per-query wall-clock budget (0 = unbounded)")
		fragPath    = flag.String("fragcache", "", "persist the shared prepared-fragment cache at this path")
		expvarName  = flag.String("expvar", "reprod", "expvar name for the engine snapshot (empty disables)")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline")
		chaosSeed   = flag.Int64("chaos-seed", 0, "arm deterministic fault injection with this seed (0 = off)")
		chaosSpec   = flag.String("chaos", "", "per-site fault probabilities, 'site:kind=p,kind=p;site:…' with sites eval.step|leaf.prepare|cache.lookup|sse.flush and kinds panic|error|cancel|latency|latency_ms (empty = a mild default schedule)")
	)
	flag.Parse()

	db, err := buildDataset(*dataset, *sf, *probHigh, *seed)
	if err != nil {
		log.Fatalf("reprod: %v", err)
	}

	// Warm-start: with -fragcache, every serving session shares one
	// fragment cache, seeded from the previous run's save when the file
	// exists and its version matches (anything else is a cold start).
	var frags *repro.FragCache
	if *fragPath != "" {
		frags = loadFrags(*fragPath)
	}

	inj, err := buildInjector(*chaosSeed, *chaosSpec)
	if err != nil {
		log.Fatalf("reprod: %v", err)
	}
	if inj != nil {
		log.Printf("reprod: CHAOS ARMED (seed %d): deterministic fault injection is live — not a production configuration", *chaosSeed)
	}

	srv := repro.NewServer(db, repro.ServeConfig{
		DefaultEps:    *eps,
		DegradedEps:   *degradedEps,
		DefaultBudget: repro.Budget{Timeout: *budgetWall},
		MaxInflight:   *maxInflight,
		DegradeAt:     *degradeAt,
		SessionTTL:    *sessionTTL,
		SharedFrags:   frags,
		Inject:        inj,
		Logf:          log.Printf,
	})
	if *expvarName != "" {
		db.PublishExpvar(*expvarName)
	}

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.Handle("GET /debug/vars", expvar.Handler())
	hs := &http.Server{Addr: *addr, Handler: mux}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("reprod: serving %s dataset on %s", *dataset, *addr)

	select {
	case err := <-errc:
		log.Fatalf("reprod: %v", err)
	case <-ctx.Done():
	}

	log.Printf("reprod: shutting down (drain deadline %v)", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		log.Printf("reprod: drain: %v", err)
	}
	if err := hs.Shutdown(dctx); err != nil {
		log.Printf("reprod: http shutdown: %v", err)
	}
	if *fragPath != "" && frags != nil {
		saveFrags(*fragPath, frags)
	}
}

// buildDataset constructs the served DB.
func buildDataset(name string, sf, probHigh float64, seed int64) (*repro.DB, error) {
	switch name {
	case "demo":
		s := repro.NewSpace()
		orders := pdb.NewTupleIndependent(s, "orders",
			[]string{"order", "customer"},
			[][]pdb.Value{{100, 1}, {101, 1}, {102, 2}, {103, 2}},
			[]float64{0.9, 0.5, 0.8, 0.6}, 1)
		disputes := pdb.NewTupleIndependent(s, "disputes",
			[]string{"order"},
			[][]pdb.Value{{100}, {102}, {103}},
			[]float64{0.4, 0.7, 0.2}, 2)
		return repro.NewDB(s, orders, disputes), nil
	case "tpch":
		t := tpch.Generate(tpch.Config{SF: sf, ProbHigh: probHigh, Seed: seed})
		return repro.NewDB(t.Space, t.Relations()...), nil
	default:
		return nil, fmt.Errorf("unknown dataset %q (want demo or tpch)", name)
	}
}

// loadFrags warm-starts the shared fragment cache from path. Anything
// short of a complete, checksum-verified, current-version save —
// missing file, version skew, truncation, corruption — is a cold
// start, never a startup error: the cache loads empty and the daemon
// rebuilds it.
func loadFrags(path string) *repro.FragCache {
	c, err := repro.LoadFragCacheFile(path, 0)
	if err != nil {
		log.Printf("reprod: fragcache %s: %v (cold start)", path, err)
		return c
	}
	if n := c.CacheStats().Entries; n > 0 {
		log.Printf("reprod: fragcache %s: %d prepared fragments loaded", path, n)
	} else {
		log.Printf("reprod: fragcache %s: cold start", path)
	}
	return c
}

// saveFrags persists the shared fragment cache; SaveFile's temp-file
// rename means a crash mid-save never corrupts the previous snapshot.
func saveFrags(path string, c *repro.FragCache) {
	if err := c.SaveFile(path); err != nil {
		log.Printf("reprod: fragcache save: %v", err)
		return
	}
	log.Printf("reprod: fragcache saved to %s (%d entries)", path, c.CacheStats().Entries)
}

// chaosSites is the injectable-site vocabulary, for -chaos validation.
var chaosSites = []string{
	fault.SiteEvalStep, fault.SiteLeafPrepare, fault.SiteCacheLookup, fault.SiteSSEFlush,
}

// buildInjector arms fault injection from the -chaos-seed / -chaos
// flags. Seed 0 disables injection entirely (nil injector, nil-safe
// probes everywhere). An empty spec arms a mild default schedule:
// sparse injected errors and latency at every engine site, plus rare
// panics at sse.flush — enough to exercise every containment path
// without drowning real traffic.
func buildInjector(seed int64, spec string) (*repro.FaultInjector, error) {
	if seed == 0 {
		if spec != "" {
			return nil, fmt.Errorf("-chaos needs -chaos-seed (seed 0 keeps injection off)")
		}
		return nil, nil
	}
	inj := repro.NewFaultInjector(seed)
	if spec == "" {
		for _, site := range chaosSites {
			inj.Configure(site, repro.FaultSiteConfig{
				Error: 0.002, Latency: 0.01, LatencyDur: 2 * time.Millisecond,
			})
		}
		inj.Configure(fault.SiteSSEFlush, repro.FaultSiteConfig{
			Panic: 0.001, Latency: 0.01, LatencyDur: 2 * time.Millisecond,
		})
		return inj, nil
	}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		site, kvs, ok := strings.Cut(part, ":")
		site = strings.TrimSpace(site)
		if !ok || !validChaosSite(site) {
			return nil, fmt.Errorf("-chaos: bad site in %q (want one of %s)", part, strings.Join(chaosSites, ", "))
		}
		var cfg repro.FaultSiteConfig
		for _, kv := range strings.Split(kvs, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return nil, fmt.Errorf("-chaos: bad setting %q in %q", kv, part)
			}
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || !(f >= 0) { // NaN fails every comparison
				return nil, fmt.Errorf("-chaos: bad value %q in %q", v, part)
			}
			switch k {
			case "panic":
				cfg.Panic = f
			case "error":
				cfg.Error = f
			case "cancel":
				cfg.Cancel = f
			case "latency":
				cfg.Latency = f
			case "latency_ms":
				cfg.LatencyDur = time.Duration(f * float64(time.Millisecond))
			default:
				return nil, fmt.Errorf("-chaos: unknown fault kind %q in %q", k, part)
			}
			if f > 1 && k != "latency_ms" {
				return nil, fmt.Errorf("-chaos: %s:%s=%s is not a probability in [0, 1]", site, k, v)
			}
		}
		// One draw per firing decides among the three exclusive kinds
		// (fault.SiteConfig), so together they cannot exceed certainty.
		if sum := cfg.Panic + cfg.Error + cfg.Cancel; sum > 1 {
			return nil, fmt.Errorf("-chaos: panic+error+cancel = %g exceeds 1 in %q", sum, part)
		}
		inj.Configure(site, cfg)
	}
	return inj, nil
}

func validChaosSite(site string) bool {
	for _, s := range chaosSites {
		if s == site {
			return true
		}
	}
	return false
}
