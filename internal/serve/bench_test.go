package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro"
	"repro/internal/serve"
)

func benchServer(b *testing.B) string {
	b.Helper()
	srv := repro.NewServer(serveDB(b), repro.ServeConfig{DefaultEps: 1e-2})
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(func() {
		srv.Shutdown(context.Background())
		ts.Close()
	})
	return ts.URL
}

// BenchmarkServeFirstByte measures request-to-first-event latency: one
// SSE query per iteration, read until the meta event hits the wire,
// then hang up. This is the service's interactive floor — decode,
// admission, session acquire, wire compile, plan, first flush.
func BenchmarkServeFirstByte(b *testing.B) {
	base := benchServer(b)
	body, err := json.Marshal(serve.Request{Session: "bench", Query: topkQuery(2)})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		hr, _ := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/query", bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			cancel()
			b.Fatal(err)
		}
		buf := make([]byte, 1)
		if _, err := resp.Body.Read(buf); err != nil {
			cancel()
			b.Fatal(err)
		}
		cancel()
		resp.Body.Close()
	}
}

// BenchmarkServeThroughput measures full-query turnaround in batch
// mode on a warm named session — the steady-state cost of one served
// query, fragment cache hot.
func BenchmarkServeThroughput(b *testing.B) {
	base := benchServer(b)
	body, err := json.Marshal(serve.Request{Session: "bench", Query: topkQuery(2)})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hr, _ := http.NewRequest(http.MethodPost, base+"/v1/query", bytes.NewReader(body))
		hr.Header.Set("Accept", "application/json")
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			b.Fatal(err)
		}
		var out struct {
			Summary serve.Summary `json:"summary"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if out.Summary.Error != "" {
			b.Fatal(out.Summary.Error)
		}
	}
}
