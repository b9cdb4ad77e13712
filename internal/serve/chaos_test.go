package serve_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/fault"
	"repro/internal/serve"
)

// chaosErrOK reports whether a stream-level error message is an
// acceptable chaos outcome: empty (the run survived the faults), an
// injected fault or its contained-panic form, a spurious cancellation,
// or a budget or deadline stop. Anything else — a corrupt answer,
// a raw runtime error that escaped containment — fails the soak.
func chaosErrOK(msg string) bool {
	if msg == "" {
		return true
	}
	for _, sub := range []string{
		"injected", "panic recovered", "context canceled", "budget", "deadline",
	} {
		if strings.Contains(msg, sub) {
			return true
		}
	}
	return false
}

// TestChaosSoakInjectedFaults is the fault-injected counterpart of the
// concurrency soak (run it under -race): a deterministic injector is
// armed at every site — engine faults below the containment layers,
// panics on the SSE flush path — while concurrent sessions stream a
// mixed workload. The containment contract under test: the daemon
// never exits, every admitted stream still ends with a well-formed
// final done event, every failure message is a recognized injected /
// budget / deadline shape, each injected panic is recovered and
// counted exactly once, and afterwards the server drains to zero
// inflight with no leaked goroutines.
func TestChaosSoakInjectedFaults(t *testing.T) {
	inj := repro.NewFaultInjector(20260808)
	inj.Configure(fault.SiteEvalStep, repro.FaultSiteConfig{
		Error: 0.05, Cancel: 0.02, Latency: 0.05, LatencyDur: 200 * time.Microsecond,
	})
	inj.Configure(fault.SiteLeafPrepare, repro.FaultSiteConfig{Panic: 0.03})
	inj.Configure(fault.SiteCacheLookup, repro.FaultSiteConfig{Panic: 0.02})
	// sse.flush gets Panic and Latency ONLY: an injected error or cancel
	// at this site plays as a client disconnect — the stream legitimately
	// just stops, which would void the every-stream-ends-done assertion
	// below. Panics instead unwind into the serving layer's containment
	// and must still produce error + done.
	inj.Configure(fault.SiteSSEFlush, repro.FaultSiteConfig{
		Panic: 0.1, Latency: 0.05, LatencyDur: time.Millisecond,
	})

	srv := repro.NewServer(serveDB(t), repro.ServeConfig{
		DefaultEps:  1e-3,
		MaxInflight: 64,
		DegradeAt:   64,
		Inject:      inj,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	base := ts.URL

	// Warm up (faults may hit it — only the transport matters), then
	// take the goroutine baseline.
	_, _, warmErr, warmSum, warmOrder := collectStream(t, base, serve.Request{Query: topkQuery(1)})
	if len(warmOrder) == 0 || warmOrder[len(warmOrder)-1] != "done" {
		t.Fatalf("warmup event order %v, want a final done (err %q/%q)", warmOrder, warmErr, warmSum.Error)
	}
	http.DefaultClient.CloseIdleConnections()
	baseline := runtime.NumGoroutine()

	const sessions, queries = 4, 4
	var wg sync.WaitGroup
	for si := 0; si < sessions; si++ {
		name := string(rune('a' + si))
		for qi := 0; qi < queries; qi++ {
			wg.Add(1)
			go func(name string, mode int) {
				defer wg.Done()
				var req serve.Request
				switch mode {
				case 0:
					// Ranked anytime run over the staggered grids.
					req = serve.Request{Session: name, Query: gridTopK(3, "le", 5)}
				case 1:
					// Trivial demo run — the bulk of the answer events
					// feeding the sse.flush site.
					req = serve.Request{Session: name, Query: topkQuery(2)}
				case 2:
					// The tied grind at a tight eps: a stream of
					// eval.step firings, near-certain injected failure —
					// with a short wall budget as the backstop when the
					// draw spares it.
					req = serve.Request{
						Session: name,
						Eps:     f64(1e-4),
						Budget:  &serve.Budget{TimeoutMS: 3000},
						Query:   gridTopK(2, "ge", 9),
					}
				case 3:
					// Budget exhaustion layered under injection.
					req = serve.Request{
						Session: name,
						Eps:     f64(0),
						Budget:  &serve.Budget{MaxNodes: 2000},
						Query:   gridQuery(),
					}
				}
				_, _, errMsg, sum, order := collectStream(t, base, req)
				if len(order) == 0 || order[len(order)-1] != "done" {
					t.Errorf("session %s mode %d: event order %v, want a final done", name, mode, order)
				}
				if !chaosErrOK(errMsg) || !chaosErrOK(sum.Error) {
					t.Errorf("session %s mode %d: unrecognized failure %q / %q — a fault escaped containment?", name, mode, errMsg, sum.Error)
				}
			}(name, qi%4)
		}
	}
	wg.Wait()

	// Every admitted stream retired; the daemon is still serving.
	waitInflight(t, base, 0)
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz after soak: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after soak: status %d, want 200", resp.StatusCode)
	}

	m := getMetrics(t, base)
	st := inj.Stats()
	for site, s := range st {
		t.Logf("site %-13s fired %5d: panics %d errors %d cancels %d delays %d",
			site, s.Fired, s.Panics, s.Errors, s.Cancels, s.Delays)
	}
	t.Logf("recovered: engine %d serve %d", m.Engine.PanicsRecovered, m.Serve.Panics)

	// The soak must actually exercise both containment layers...
	var enginePanics int64
	for _, site := range []string{fault.SiteLeafPrepare, fault.SiteCacheLookup} {
		s := st[site]
		enginePanics += s.Panics + s.Errors + s.Cancels // FirePanic sites: every kind surfaces as a panic
	}
	if enginePanics == 0 || st[fault.SiteSSEFlush].Panics == 0 {
		t.Fatalf("soak injected no panics (engine %d, sse.flush %d) — raise the probabilities or change the seed", enginePanics, st[fault.SiteSSEFlush].Panics)
	}
	// ... and every injected panic must have been recovered and counted
	// exactly once: engine sites by the workpool / per-answer / rank
	// containments, sse.flush by the serving layer's runContained.
	injected := enginePanics + st[fault.SiteSSEFlush].Panics
	if got := m.Engine.PanicsRecovered + m.Serve.Panics; got < injected {
		t.Errorf("panics recovered %d (engine %d + serve %d) < injected %d — a panic escaped or was double-swallowed",
			got, m.Engine.PanicsRecovered, m.Serve.Panics, injected)
	}
	if m.Serve.Panics < st[fault.SiteSSEFlush].Panics {
		t.Errorf("serve panics %d < injected sse.flush panics %d — flush panics must reach the serving containment", m.Serve.Panics, st[fault.SiteSSEFlush].Panics)
	}
	if m.Serve.Requests != sessions*queries+1 || m.Serve.Rejected != 0 {
		t.Errorf("requests/rejected = %d/%d, want %d/0", m.Serve.Requests, m.Serve.Rejected, sessions*queries+1)
	}

	// No leaked goroutines: injected panics and cancels must not strand
	// workers or stream handlers.
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+8 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines settled at %d, baseline %d — leak under chaos", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(50 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("clean shutdown after chaos: %v", err)
	}
}

// TestChaosWireValidationRejects covers the request-hardening half of
// the fault layer: malformed precision, negative budgets and oversized
// plans must come back as a 400 with the JSON error envelope — never a
// panic, never an engine run — and the server must keep serving
// afterwards.
func TestChaosWireValidationRejects(t *testing.T) {
	_, base := newTestServer(t, repro.ServeConfig{DefaultEps: 1e-3})

	deep := scan("orders")
	for i := 0; i < serve.MaxWireNodes+8; i++ {
		deep = &serve.Node{Where: &serve.Where{Input: deep, Col: 0, Op: "ge", Value: 0}}
	}

	cases := []struct {
		name string
		req  serve.Request
		want string
	}{
		{"negative eps", serve.Request{Eps: f64(-0.5), Query: topkQuery(1)}, "eps"},
		{"eps at one", serve.Request{Eps: f64(1), Query: topkQuery(1)}, "eps"},
		{"eps above one", serve.Request{Eps: f64(1.5), Query: topkQuery(1)}, "eps"},
		{"negative node budget", serve.Request{Budget: &serve.Budget{MaxNodes: -1}, Query: topkQuery(1)}, "budget"},
		{"negative timeout", serve.Request{Budget: &serve.Budget{TimeoutMS: -5}, Query: topkQuery(1)}, "budget"},
		{"oversized plan", serve.Request{Query: &serve.Node{GroupLineage: &serve.Unary{Input: deep, Cols: []int{0}}}}, "operators"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postQuery(t, base, tc.req, "")
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body %s)", resp.StatusCode, body)
			}
			var env struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("error envelope is not JSON: %v (%s)", err, body)
			}
			if !strings.Contains(env.Error, tc.want) {
				t.Fatalf("error %q does not mention %q", env.Error, tc.want)
			}
		})
	}

	// NaN/Inf eps cannot even be encoded as JSON, so over HTTP they die
	// at the decoder — still a 400, still the envelope. (Validate guards
	// the non-HTTP entry points too.)
	resp, err := http.Post(base+"/v1/query", "application/json",
		strings.NewReader(`{"eps": NaN, "query": {"scan": "orders"}}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("NaN eps: status %d, want 400", resp.StatusCode)
	}

	// max_samples is no wire field: no evaluator the server builds draws
	// samples, so the decoder refuses it by name like any unknown field.
	resp, err = http.Post(base+"/v1/query", "application/json",
		strings.NewReader(`{"budget": {"max_samples": 1000}, "query": {"scan": "orders"}}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "max_samples") {
		t.Fatalf("max_samples: status %d (%s), want a 400 naming the field", resp.StatusCode, body)
	}

	// The server survived every rejection: a good query still runs.
	_, answers, errMsg, sum, order := collectStream(t, base, serve.Request{Query: topkQuery(2)})
	if errMsg != "" || sum.Error != "" || len(answers) != 2 {
		t.Fatalf("post-rejection query: %d answers, err %q/%q", len(answers), errMsg, sum.Error)
	}
	if order[len(order)-1] != "done" {
		t.Fatalf("post-rejection event order %v", order)
	}
}
