package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// httpError writes a JSON error body — the envelope every non-stream
// failure uses, so clients parse one shape for 400/429/503 alike.
func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{msg})
}

// retryAfterSeconds derives the 429/503 Retry-After hint from the
// default budget's timeout — the bound on how long a slot stays
// occupied, hence on how soon one frees up. An unbounded budget hints
// one second.
func (s *Server) retryAfterSeconds() int {
	d := s.cfg.DefaultBudget.Timeout
	if d <= 0 {
		return 1
	}
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// sseSink maps the run onto a Server-Sent Events stream: one "meta"
// event, one "answer" event per decided answer — each flushed
// immediately, which is what makes the anytime contract visible to the
// client — then "error" (if any) and "done", written by the handler.
type sseSink struct {
	w   http.ResponseWriter
	rc  *http.ResponseController
	met *obs.ServeMetrics

	start   time.Time
	started bool
	failed  bool
	meta    Meta
	answers int

	// id prefixes each answer event's SSE id: field ("q-7/3" is the
	// third answer of query q-7), giving reconnecting clients a resume
	// cursor; retryMS is the one-shot retry: reconnection hint written
	// when the stream opens; inj fires the sse.flush chaos site before
	// each answer write (nil-safe, the production case).
	id      string
	retryMS int
	inj     *fault.Injector
}

func (k *sseSink) event(name string, v any) bool { return k.eventID("", name, v) }

func (k *sseSink) eventID(id, name string, v any) bool {
	if k.failed {
		return false
	}
	if !k.started {
		h := k.w.Header()
		h.Set("Content-Type", "text/event-stream")
		h.Set("Cache-Control", "no-cache")
		h.Set("X-Accel-Buffering", "no") // tell buffering proxies to pass events through
		k.w.WriteHeader(http.StatusOK)
		k.started = true
		k.met.RecordFirstEvent(time.Since(k.start))
		if k.retryMS > 0 {
			// A lone retry: field is processed line-by-line by SSE
			// parsers; it dispatches no event, only sets the client's
			// reconnection delay.
			fmt.Fprintf(k.w, "retry: %d\n\n", k.retryMS)
		}
	}
	data, err := json.Marshal(v)
	if err == nil {
		if id != "" {
			_, err = fmt.Fprintf(k.w, "id: %s\nevent: %s\ndata: %s\n\n", id, name, data)
		} else {
			_, err = fmt.Fprintf(k.w, "event: %s\ndata: %s\n\n", name, data)
		}
	}
	if err != nil {
		k.failed = true
		return false
	}
	if ferr := k.rc.Flush(); ferr != nil && !errors.Is(ferr, http.ErrNotSupported) {
		k.failed = true
		return false
	}
	return true
}

func (k *sseSink) Meta(m Meta) bool {
	k.meta = m
	return k.event("meta", m)
}

func (k *sseSink) Answer(a Answer) bool {
	// The sse.flush chaos site: an injected error or cancellation plays
	// as a broken client connection (the stream just stops, like a real
	// disconnect); an injected panic unwinds into runStream's
	// containment and ends the stream with well-formed error + done
	// events; injected latency models a slow consumer.
	if err := k.inj.Fire(fault.SiteSSEFlush); err != nil {
		k.failed = true
		return false
	}
	k.answers++
	if !k.eventID(fmt.Sprintf("%s/%d", k.id, k.answers), "answer", a) {
		k.answers--
		return false
	}
	k.met.RecordAnswer()
	return true
}

// batchSink collects the run for a single application/json response —
// the non-streaming mode (Accept: application/json).
type batchSink struct {
	met     *obs.ServeMetrics
	meta    Meta
	answers []Answer
}

func (k *batchSink) Meta(m Meta) bool { k.meta = m; return true }

func (k *batchSink) Answer(a Answer) bool {
	k.answers = append(k.answers, a)
	k.met.RecordAnswer()
	return true
}

// handleQuery is POST /v1/query.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()

	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if err := req.Validate(); err != nil {
		status := http.StatusBadRequest
		var rerr *RequestError
		if errors.As(err, &rerr) {
			status = rerr.Status
		}
		httpError(w, status, err.Error())
		return
	}

	// Admission: a draining server sheds everything; a full one sheds
	// with 429 + Retry-After; past the soft threshold, pressured is true
	// and degradation-eligible queries widen below.
	if s.draining.Load() {
		s.met.RecordAdmission(false, false)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	ok, pressured := s.adm.acquire()
	if !ok {
		s.met.RecordAdmission(false, false)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		httpError(w, http.StatusTooManyRequests, "overloaded: inflight limit reached")
		return
	}
	defer s.adm.release()
	s.wg.Add(1)
	defer s.wg.Done()

	sess := s.sessions.acquire(req.Session, start)
	defer func() { s.sessions.release(sess, time.Now()) }()

	// Precision: the sticky session ask, clamped by the degradation
	// rule (explicit Eps is never widened).
	reqEps, explicit := sess.noteEps(req.Eps)
	eps, widened := effectiveEps(reqEps, explicit, s.cfg.DefaultEps, s.cfg.DegradedEps, pressured)
	s.met.RecordAdmission(true, widened)
	disconnected := false
	defer func() { s.met.RecordDone(disconnected) }()

	budget := req.Budget.Engine(s.cfg.DefaultBudget)

	// The query context cancels when the client disconnects (ending the
	// evaluation mid-refinement) or when shutdown hard-stops the drain.
	ctx, cancelReq := context.WithCancel(r.Context())
	defer cancelReq()
	stop := context.AfterFunc(s.baseCtx, cancelReq)
	defer stop()

	params := RunParams{ID: s.nextID(), Eps: eps, Degraded: widened, Budget: budget}

	accept := r.Header.Get("Accept")
	if strings.Contains(accept, "application/json") && !strings.Contains(accept, "text/event-stream") {
		s.runBatch(ctx, w, r, sess.client, &req, params, start, &disconnected)
		return
	}
	s.runStream(ctx, w, r, sess.client, &req, params, start, &disconnected)
}

// runContained executes one query run with last-line panic
// containment: a panic that escaped every inner recovery point (an
// injected sse.flush panic, a bug in the serving glue) becomes the
// run's error, so the stream still ends with well-formed error + done
// events and the daemon keeps serving. net/http would survive the
// panic anyway, but only by tearing the connection down mid-stream.
func (s *Server) runContained(ctx context.Context, client SessionClient, req *Request, params RunParams, sink Sink) (out RunOutcome, err error) {
	defer func() {
		if v := recover(); v != nil {
			pe, _ := fault.Promote(v, "serve.query")
			pe.QueryID = params.ID
			s.met.RecordPanic()
			err = pe
		}
	}()
	return client.Run(ctx, req, params, sink)
}

// runStream executes one query onto an SSE response.
func (s *Server) runStream(ctx context.Context, w http.ResponseWriter, r *http.Request, client SessionClient, req *Request, params RunParams, start time.Time, disconnected *bool) {
	sink := &sseSink{
		w: w, rc: http.NewResponseController(w), met: s.met, start: start,
		id: params.ID, retryMS: 1000 * s.retryAfterSeconds(), inj: s.cfg.Inject,
	}
	out, err := s.runContained(ctx, client, req, params, sink)

	if r.Context().Err() != nil {
		*disconnected = true
	}

	var rerr *RequestError
	if err != nil && !sink.started && errors.As(err, &rerr) {
		// Request-level failure (a build error) before any stream
		// bytes: a proper status code is still possible.
		httpError(w, rerr.Status, rerr.Error())
		return
	}

	sum := out.Summary
	if err != nil && sum.Error == "" {
		sum.Error = err.Error()
	}
	s.traces.put(&traceEntry{
		ID: params.ID, Session: req.Session, At: start,
		Meta: sink.meta, Summary: sum, Trace: out.Trace,
	})

	if sink.failed || *disconnected {
		return // client is gone; nothing more to write
	}
	if err != nil {
		sink.event("error", struct {
			Error string `json:"error"`
		}{err.Error()})
	}
	sink.event("done", sum)
}

// runBatch executes one query into a single JSON response.
func (s *Server) runBatch(ctx context.Context, w http.ResponseWriter, r *http.Request, client SessionClient, req *Request, params RunParams, start time.Time, disconnected *bool) {
	sink := &batchSink{met: s.met}
	out, err := s.runContained(ctx, client, req, params, sink)

	if r.Context().Err() != nil {
		*disconnected = true
	}

	var rerr *RequestError
	if err != nil && errors.As(err, &rerr) {
		httpError(w, rerr.Status, rerr.Error())
		return
	}

	sum := out.Summary
	if err != nil && sum.Error == "" {
		sum.Error = err.Error()
	}
	s.traces.put(&traceEntry{
		ID: params.ID, Session: req.Session, At: start,
		Meta: sink.meta, Summary: sum, Trace: out.Trace,
	})
	writeJSON(w, http.StatusOK, struct {
		Meta    Meta     `json:"meta"`
		Answers []Answer `json:"answers"`
		Summary Summary  `json:"summary"`
	}{sink.meta, sink.answers, sum})
}

// handleMetrics is GET /metrics: the engine registry (routes, lineage,
// refinement, caches) next to the serving registry (admission,
// degradation, sessions, stream latencies).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Engine obs.Snapshot      `json:"engine"`
		Serve  obs.ServeSnapshot `json:"serve"`
	}{s.backend.Snapshot(), s.met.Snapshot()})
}

// handleTrace is GET /v1/query/{id}/trace: the EXPLAIN ANALYZE record
// of a recent query. ?format=text renders the human trace text.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	e, ok := s.traces.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no trace for query "+r.PathValue("id")+" (expired from the ring or never ran)")
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if e.Trace != nil {
			fmt.Fprint(w, e.Trace.String())
		}
		return
	}
	writeJSON(w, http.StatusOK, e)
}

// handleSessions is GET /v1/sessions: the live affinity sessions.
func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Sessions []SessionInfo `json:"sessions"`
	}{s.sessions.stats(time.Now())})
}

// handleHealthz is GET /healthz: 200 while serving, 503 once draining.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"ok"})
}
