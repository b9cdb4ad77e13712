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

// writer is what differs between the two Accept modes: how the run's
// meta, each answer and its end reach the client. meta and answer
// report false once the client is gone, which ends the run.
type writer interface {
	meta(Meta) bool
	answer(Answer) bool
	// finish ends the response: the run's error, if any, and its
	// summary.
	finish(sum Summary, err error)
}

// sseWriter maps the run onto a Server-Sent Events stream: one "meta"
// event, one "answer" event per decided answer — each flushed
// immediately, which is what makes the anytime contract visible to the
// client — then "error" (if any) and "done".
type sseWriter struct {
	w   http.ResponseWriter
	rc  *http.ResponseController
	met *obs.ServeMetrics

	start   time.Time
	started bool
	failed  bool
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

func (k *sseWriter) event(name string, v any) bool { return k.eventID("", name, v) }

func (k *sseWriter) eventID(id, name string, v any) bool {
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

func (k *sseWriter) meta(m Meta) bool { return k.event("meta", m) }

func (k *sseWriter) answer(a Answer) bool {
	// The sse.flush chaos site: an injected error or cancellation plays
	// as a broken client connection (the stream just stops, like a real
	// disconnect); an injected panic unwinds into stream's containment
	// and ends the stream with well-formed error + done events;
	// injected latency models a slow consumer.
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

func (k *sseWriter) finish(sum Summary, err error) {
	if err != nil {
		k.event("error", struct {
			Error string `json:"error"`
		}{err.Error()})
	}
	k.event("done", sum)
}

// jsonWriter collects the run into a single application/json document
// — the non-streaming mode (Accept: application/json).
type jsonWriter struct {
	w       http.ResponseWriter
	met     *obs.ServeMetrics
	m       Meta
	answers []Answer
}

func (k *jsonWriter) meta(m Meta) bool { k.m = m; return true }

func (k *jsonWriter) answer(a Answer) bool {
	k.answers = append(k.answers, a)
	k.met.RecordAnswer()
	return true
}

func (k *jsonWriter) finish(sum Summary, _ error) {
	writeJSON(k.w, http.StatusOK, struct {
		Meta    Meta     `json:"meta"`
		Answers []Answer `json:"answers"`
		Summary Summary  `json:"summary"`
	}{k.m, k.answers, sum})
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
		httpError(w, http.StatusBadRequest, err.Error())
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

	meta := Meta{ID: s.nextID(), Session: req.Session, Eps: eps, Degraded: widened}
	var out writer = &sseWriter{
		w: w, rc: http.NewResponseController(w), met: s.met, start: start,
		id: meta.ID, retryMS: 1000 * s.retryAfterSeconds(), inj: s.cfg.Inject,
	}
	if accept := r.Header.Get("Accept"); strings.Contains(accept, "application/json") && !strings.Contains(accept, "text/event-stream") {
		out = &jsonWriter{w: w, met: s.met}
	}
	disconnected = s.run(w, r, sess.client, &req, meta, out, start)
}

// run is the one run path of an admitted query, in either Accept mode:
// the session client builds the query (a build failure is a 400 before
// any other byte), stream writes its meta and answers to out, the trace
// ring records the run, and out finishes the response unless the
// client is gone. It reports whether the client disconnected.
func (s *Server) run(w http.ResponseWriter, r *http.Request, client SessionClient, req *Request, meta Meta, out writer, start time.Time) (disconnected bool) {
	q, err := client.Build(req, meta.Eps, req.Budget.Engine(s.cfg.DefaultBudget))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return r.Context().Err() != nil
	}
	meta.Explain, meta.Schema = q.Explain(), q.Schema()

	// The query context cancels when the client disconnects (ending the
	// evaluation mid-refinement) or when shutdown hard-stops the drain.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	defer context.AfterFunc(s.baseCtx, cancel)()

	sum, err := s.stream(ctx, q, meta, out)
	if err != nil {
		sum.Error = err.Error()
	}
	s.traces.put(&traceEntry{
		ID: meta.ID, Session: meta.Session, At: start,
		Meta: meta, Summary: sum, Trace: q.Trace(),
	})
	if r.Context().Err() != nil {
		return true // client is gone; nothing more to write
	}
	out.finish(sum, err)
	return false
}

// stream writes meta, then each answer as the built query proves it,
// and summarizes the run from its trace. A refused write means the
// client is gone: breaking the loop cancels the evaluation. The run's
// error, if any, is the answer stream's final element, so answers
// already written stay delivered. stream is the last line of panic
// containment: a panic that escaped every inner recovery point (an
// injected sse.flush panic, a bug in the serving glue) becomes the
// run's error, so the stream still ends with well-formed error + done
// events and the daemon keeps serving. net/http would survive the
// panic anyway, but only by tearing the connection down mid-stream.
func (s *Server) stream(ctx context.Context, q BuiltQuery, meta Meta, out writer) (sum Summary, err error) {
	defer func() {
		if v := recover(); v != nil {
			pe, _ := fault.Promote(v, "serve.query")
			pe.QueryID = meta.ID
			s.met.RecordPanic()
			sum, err = Summary{}, pe
		}
	}()
	if !out.meta(meta) {
		if err := ctx.Err(); err != nil {
			return Summary{}, err
		}
		return Summary{}, errors.New("client went away before the stream started")
	}
	for a, aerr := range q.Answers(ctx) {
		if aerr != nil {
			err = aerr
			continue
		}
		sum.Answers++
		if !out.answer(a) {
			break
		}
	}
	if tr := q.Trace(); tr != nil {
		sum.Route = tr.Route
		sum.WallMicros = tr.Wall.Microseconds()
		if tr.Rank != nil {
			sum.Steps = tr.Rank.Steps
		}
	}
	return sum, err
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
