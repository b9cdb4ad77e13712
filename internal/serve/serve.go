// Package serve is the query service in front of the engine façade: a
// long-lived net/http daemon that maps the façade's streaming iterator
// onto the wire.
//
// The service's shape follows the paper's anytime contract. A query's
// answers are not a batch — the ranking schedulers prove top-k
// membership answer by answer, and the façade surfaces each answer the
// moment its proof lands. POST /v1/query keeps that property on the
// wire: the response is a Server-Sent Events stream, each answer event
// flushed as it is decided (its decided_at_step strictly below the done
// event's steps is the wire-visible proof it beat the full run), and a
// client that disconnects mid-stream cancels the evaluation through its
// request context.
//
// Around that core the server adds what a shared daemon needs:
//
//   - Session affinity: requests naming a session share its fragment
//     cache, so a warm workload's repeated subformulas are priced once.
//     Idle sessions expire.
//   - Admission control: a two-threshold inflight limiter. Past the
//     soft threshold, queries that left precision to the server run at
//     a wider (cheaper) Eps — the documented degradation knob — while
//     queries with an explicitly requested Eps are never degraded. At
//     the hard threshold, requests are shed with 429 + Retry-After.
//   - Observability: GET /metrics exports the engine registry next to
//     the serving one; GET /v1/query/{id}/trace replays a recent
//     query's EXPLAIN ANALYZE trace.
//   - Graceful shutdown: draining lets in-flight streams finish (up to
//     a deadline) while new queries get 503.
//
// The package is engine-agnostic: it talks to a Backend interface the
// root repro package implements (repro.NewServer), which keeps this
// package importable from the façade for option re-export. The backend
// only builds: it turns a wire request, at the precision and budget
// admission chose, into a BuiltQuery. The server runs it and writes
// the response — meta, answers, error and done events, or one JSON
// document — on one run path for both Accept modes, and a build
// failure is a 400 before any other byte.
package serve

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/formula"
	"repro/internal/obs"
)

// Defaults for the zero Config, and the recent-query trace ring's size.
const (
	DefaultDegradedEps = 0.05
	DefaultSessionTTL  = 5 * time.Minute
	DefaultTraceBuffer = 256
)

// Config tunes a Server. The zero value is serviceable: default
// precision from the engine's evaluator default, inflight ceiling from
// GOMAXPROCS, five-minute session TTL.
type Config struct {
	// DefaultEps is the precision unconstrained requests run at
	// (0 = exact evaluation).
	DefaultEps float64
	// DegradedEps is the wider Eps the server falls back to under
	// pressure — the degradation knob. Only requests without an explicit
	// Eps are widened, and only when DegradedEps is wider than
	// DefaultEps. 0 means DefaultDegradedEps.
	DegradedEps float64
	// DefaultBudget fills every budget field a request leaves zero or
	// absent: Timeout is one deadline for the whole query, MaxNodes and
	// MaxWork bound each answer's evaluation. Together with MaxInflight
	// it is the server's work envelope: MaxInflight × budget bounds
	// total concurrent work.
	DefaultBudget engine.Budget
	// MaxInflight is the hard admission ceiling (429 past it);
	// 0 means 4 × GOMAXPROCS.
	MaxInflight int
	// DegradeAt is the soft threshold past which degradation starts;
	// 0 means MaxInflight/2 (minimum 1).
	DegradeAt int
	// SessionTTL expires idle named sessions; 0 means DefaultSessionTTL.
	SessionTTL time.Duration
	// SharedFrags, when set, is a prepared-fragment cache every session
	// shares instead of pinning its own — the warm-start hook: load one
	// with formula.LoadFragCache and hand it here, and the daemon starts
	// with the previous run's decompositions. Read by the repro backend,
	// not by this package.
	SharedFrags *formula.FragCache
	// Inject, when set, arms deterministic fault injection: the SSE
	// answer path fires the sse.flush chaos site before each event
	// write, and the repro backend threads the same injector into every
	// query session (the eval.step, leaf.prepare and cache.lookup
	// sites). Nil — the production configuration — costs a single nil
	// check per probe.
	Inject *fault.Injector
	// Logf, when set, receives server lifecycle lines (the shutdown
	// drain). Nil means silent.
	Logf func(format string, args ...any)
}

// withDefaults resolves the zero fields.
func (c Config) withDefaults() Config {
	if c.DegradedEps == 0 {
		c.DegradedEps = DefaultDegradedEps
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.DegradeAt <= 0 {
		c.DegradeAt = c.MaxInflight / 2
		if c.DegradeAt < 1 {
			c.DegradeAt = 1
		}
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = DefaultSessionTTL
	}
	return c
}

// Server is the query service. Create one with New (or repro.NewServer,
// which wires the façade backend), mount Handler on any net/http
// server, and drain it with Shutdown before closing that server.
type Server struct {
	cfg      Config
	backend  Backend
	adm      *admission
	sessions *sessionManager
	traces   *traceStore
	met      *obs.ServeMetrics
	mux      *http.ServeMux

	// baseCtx parents every query context; cancelling it is the
	// shutdown hard-stop that ends streams still running past the drain
	// deadline.
	baseCtx context.Context
	cancel  context.CancelFunc

	draining atomic.Bool
	wg       sync.WaitGroup // one unit per admitted query
	qid      atomic.Int64

	janitorStop chan struct{}
	janitorDone chan struct{}
}

// New builds a Server over a backend. The returned server's janitor
// goroutine runs until Shutdown.
func New(backend Backend, cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	met := obs.NewServeMetrics()
	s := &Server{
		cfg:         cfg,
		backend:     backend,
		adm:         &admission{max: int64(cfg.MaxInflight), degradeAt: int64(cfg.DegradeAt)},
		sessions:    newSessionManager(backend, cfg.SessionTTL, met),
		traces:      newTraceStore(DefaultTraceBuffer),
		met:         met,
		mux:         http.NewServeMux(),
		baseCtx:     ctx,
		cancel:      cancel,
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	s.routes()
	go s.janitor()
	return s
}

// Metrics returns the server's serving-layer registry (the engine
// registry stays with the backend).
func (s *Server) Metrics() *obs.ServeMetrics { return s.met }

// Handler returns the server's routed handler, for mounting on a
// caller-owned net/http server or httptest.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("GET /v1/query/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/sessions", s.handleSessions)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// janitor expires idle sessions every quarter of the session TTL,
// clamped to [1s, 30s].
func (s *Server) janitor() {
	defer close(s.janitorDone)
	t := time.NewTicker(min(max(s.cfg.SessionTTL/4, time.Second), 30*time.Second))
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case now := <-t.C:
			s.sessions.sweep(now)
		}
	}
}

// nextID assigns a query ID ("q-1", "q-2", ...) used for trace lookup.
func (s *Server) nextID() string {
	return fmt.Sprintf("q-%d", s.qid.Add(1))
}

// Shutdown drains the server: new queries get 503 immediately,
// in-flight streams run to completion until ctx is done, then the
// stragglers are cancelled and awaited. The janitor stops either way.
// Safe to call once; returns ctx.Err() if the drain deadline forced a
// hard stop.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	close(s.janitorStop)
	start := time.Now()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancel() // hard-stop the streams still running
		<-done
	}
	s.cancel()
	<-s.janitorDone
	s.met.RecordDrain(time.Since(start))
	s.logf("serve: drained in %v", time.Since(start))
	return err
}
