package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/serve"
)

// runJSON posts req with Accept: application/json and decodes the one
// document.
func runJSON(tb testing.TB, base string, req serve.Request) (meta serve.Meta, answers []serve.Answer, sum serve.Summary) {
	tb.Helper()
	resp := postQuery(tb, base, req, "application/json")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		tb.Fatalf("POST /v1/query (JSON): status %d: %s", resp.StatusCode, b)
	}
	var out struct {
		Meta    serve.Meta     `json:"meta"`
		Answers []serve.Answer `json:"answers"`
		Summary serve.Summary  `json:"summary"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		tb.Fatal(err)
	}
	return out.Meta, out.Answers, out.Summary
}

// TestServeHTTPStreamAndJSONShareOneRun pins the one run path: the
// same ranked query, posted once as SSE and once as JSON on fresh
// servers, reports the same meta (but its id), the same answers in the
// same order and the same summary (but its wall time), and leaves a
// trace-ring entry carrying that meta and summary either way.
func TestServeHTTPStreamAndJSONShareOneRun(t *testing.T) {
	cfg := repro.ServeConfig{DefaultEps: 1e-3}
	req := serve.Request{Session: "one-path", Query: gridTopK(3, "le", 5)}

	_, sseBase := newTestServer(t, cfg)
	sMeta, sAnswers, errMsg, sSum, _ := collectStream(t, sseBase, req)
	if errMsg != "" {
		t.Fatalf("SSE run failed: %s", errMsg)
	}
	_, jsonBase := newTestServer(t, cfg)
	jMeta, jAnswers, jSum := runJSON(t, jsonBase, req)

	if sMeta.ID == "" || jMeta.ID == "" {
		t.Fatalf("meta without an id: SSE %+v, JSON %+v", sMeta, jMeta)
	}
	sm, jm := sMeta, jMeta
	sm.ID, jm.ID = "", ""
	if !reflect.DeepEqual(sm, jm) {
		t.Fatalf("meta differs but for its id:\nSSE  %+v\nJSON %+v", sMeta, jMeta)
	}
	if len(sAnswers) != 3 || !reflect.DeepEqual(sAnswers, jAnswers) {
		t.Fatalf("answers differ:\nSSE  %+v\nJSON %+v", sAnswers, jAnswers)
	}
	ss, js := sSum, jSum
	ss.WallMicros, js.WallMicros = 0, 0
	if ss.Error != "" || ss.Steps == 0 || !reflect.DeepEqual(ss, js) {
		t.Fatalf("summary differs but for its wall time (or failed, or took no steps):\nSSE  %+v\nJSON %+v", sSum, jSum)
	}

	for _, c := range []struct {
		mode, base string
		meta       serve.Meta
		sum        serve.Summary
	}{{"SSE", sseBase, sMeta, sSum}, {"JSON", jsonBase, jMeta, jSum}} {
		tr := getTrace(t, c.base, c.meta.ID)
		if tr.ID != c.meta.ID || !reflect.DeepEqual(tr.Meta, c.meta) || !reflect.DeepEqual(tr.Summary, c.sum) || tr.Trace == nil {
			t.Fatalf("%s ring entry %+v, want meta %+v and summary %+v with a trace", c.mode, tr, c.meta, c.sum)
		}
	}
}

// TestServeHTTPJSONBudgetErrorInRing pins a JSON-mode run that exhausts
// its budget: the document's summary carries the error, and so does the
// query's trace-ring entry.
func TestServeHTTPJSONBudgetErrorInRing(t *testing.T) {
	_, base := newTestServer(t, repro.ServeConfig{DefaultEps: 1e-3})
	meta, _, sum := runJSON(t, base, serve.Request{
		Eps:    f64(0),
		Budget: &serve.Budget{MaxNodes: 2000},
		Query:  gridQuery(),
	})
	if !strings.Contains(sum.Error, "budget") {
		t.Fatalf("summary error %q, want the node budget's", sum.Error)
	}
	if tr := getTrace(t, base, meta.ID); tr.Summary.Error != sum.Error || tr.Meta.ID != meta.ID {
		t.Fatalf("ring entry %+v, want meta %s with summary error %q", tr, meta.ID, sum.Error)
	}
}

// FuzzServeRequestNeverPanics feeds arbitrary bodies to POST /v1/query,
// as SSE or as JSON, on a server whose default budget is small. Every
// input must come back 200, 400 or 429; a 200 SSE body must end with a
// done event; and neither the serving layer nor the engine may have
// recovered a panic. An input asking for more than a second of wall
// time is skipped: the default budget bounds everything else.
func FuzzServeRequestNeverPanics(f *testing.F) {
	db := serveDB(f)
	srv := repro.NewServer(db, repro.ServeConfig{
		DefaultEps:    1e-2,
		DefaultBudget: repro.Budget{MaxWork: 20_000, Timeout: 200 * time.Millisecond},
	})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	f.Fuzz(func(t *testing.T, body []byte, asJSON bool) {
		var req serve.Request
		if json.Unmarshal(body, &req) == nil && req.Budget != nil && req.Budget.TimeoutMS > 1000 {
			t.Skip("asks for more wall time than a fuzz input may take")
		}
		hr := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
		if asJSON {
			hr.Header.Set("Accept", "application/json")
		}
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, hr)
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusTooManyRequests:
		default:
			t.Fatalf("status %d for %q: %s", w.Code, body, w.Body)
		}
		if out := w.Body.String(); w.Code == http.StatusOK && !asJSON {
			if i := strings.LastIndex(out, "event: "); i < 0 || !strings.HasPrefix(out[i:], "event: done\n") {
				t.Fatalf("200 SSE body for %q does not end with a done event:\n%s", body, out)
			}
		}
		if p, e := srv.Metrics().Snapshot().Panics, db.Snapshot().PanicsRecovered; p != 0 || e != 0 {
			t.Fatalf("panics recovered after %q: serve %d, engine %d", body, p, e)
		}
	})
}
