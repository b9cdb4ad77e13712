package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/pdb"
	"repro/internal/serve"
)

// server is a repro query service on a loopback listener, owned by one
// workload instance.
type server struct {
	srv    *repro.QueryServer
	hs     *http.Server
	served chan error
	base   string
}

func startServer(db *repro.DB, cfg repro.ServeConfig) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	srv := repro.NewServer(db, cfg)
	s := &server{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1), // one send, so Serve's goroutine never blocks
		base:   "http://" + ln.Addr().String(),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close drains the service, closes the listener and its connections and
// waits for the accept loop to return.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if cerr := s.hs.Close(); err == nil {
		err = cerr
	}
	if serr := <-s.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// metrics reads the serving half of GET /metrics, the service's public
// counter surface.
func (s *server) metrics(ctx context.Context) (obs.ServeSnapshot, error) {
	var out struct {
		Serve obs.ServeSnapshot `json:"serve"`
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return out.Serve, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return out.Serve, fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out.Serve, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out.Serve, fmt.Errorf("GET /metrics: %w", err)
	}
	return out.Serve, nil
}

// sseClient is one closed-loop client: its own keep-alive connection
// and its own named session.
type sseClient struct {
	hc      *http.Client
	url     string
	session string
}

func newSSEClient(base, session string) *sseClient {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &sseClient{hc: &http.Client{Transport: tr}, url: base + "/v1/query", session: session}
}

func (c *sseClient) close() { c.hc.CloseIdleConnections() }

// body marshals one request of this client's session.
func (c *sseClient) body(q *serve.Node, eps *float64, budget *serve.Budget) []byte {
	b, err := json.Marshal(serve.Request{Session: c.session, Eps: eps, Budget: budget, Query: q})
	if err != nil {
		// invariant: serve.Request holds only plain fields; Marshal cannot fail.
		panic(err)
	}
	return b
}

// poke sends GET /healthz on the client's connection.
func (c *sseClient) poke(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimSuffix(c.url, "/v1/query")+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("GET /healthz: %w", err)
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// sseResult is what one request looked like from the client: when each
// milestone arrived (since the request was written; zero = never), the
// raw answer events, and the done event.
type sseResult struct {
	meta, first, done time.Duration
	answers           [][]byte
	summary           serve.Summary
	errEvent          string
}

// query POSTs body and reads the SSE stream to its end. Answer payloads
// are kept raw and decoded by got() after the clock has stopped, so
// the client's own JSON decoding is not part of the latency it reports.
func (c *sseClient) query(ctx context.Context, body []byte) (sseResult, error) {
	var res sseResult
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return res, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best effort: the status is the error
		return res, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var rawDone []byte
	r := bufio.NewReader(resp.Body)
	event := ""
	for {
		line, err := r.ReadBytes('\n')
		if len(line) > 0 {
			line = bytes.TrimRight(line, "\n")
			switch {
			case bytes.HasPrefix(line, []byte("event: ")):
				event = string(line[len("event: "):])
			case bytes.HasPrefix(line, []byte("data: ")):
				data := line[len("data: "):]
				at := time.Since(start)
				switch event {
				case "meta":
					res.meta = at
				case "answer":
					if res.first == 0 {
						res.first = at
					}
					res.answers = append(res.answers, data)
				case "error":
					res.errEvent = string(data)
				case "done":
					res.done = at
					rawDone = data
				}
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return res, fmt.Errorf("reading stream: %w", err)
		}
	}
	if res.done == 0 {
		return res, errors.New("stream ended without a done event")
	}
	if err := json.Unmarshal(rawDone, &res.summary); err != nil {
		return res, fmt.Errorf("done event: %w", err)
	}
	return res, nil
}

// failure reports how a completed request failed, if it did: an error
// event or an error in the done summary.
func (r *sseResult) failure() error {
	if r.errEvent != "" {
		return fmt.Errorf("error event: %s", r.errEvent)
	}
	if r.summary.Error != "" {
		return fmt.Errorf("done with error: %s", r.summary.Error)
	}
	return nil
}

// got decodes the answer events into the oracle's shape.
func (r *sseResult) got() ([]got, error) {
	out := make([]got, len(r.answers))
	for i, raw := range r.answers {
		var a serve.Answer
		if err := json.Unmarshal(raw, &a); err != nil {
			return nil, fmt.Errorf("answer event %d: %w", i, err)
		}
		vals := make([]pdb.Value, len(a.Vals))
		for j, v := range a.Vals {
			vals[j] = pdb.Value(v)
		}
		out[i] = got{key: pdb.ValsKey(vals), p: a.P, lo: a.Lo, hi: a.Hi, converged: a.Converged}
	}
	return out, nil
}

// batch POSTs body with Accept: application/json and returns the
// turnaround of the single-response mode.
func (c *sseClient) batch(ctx context.Context, body []byte) (time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/json")
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var out struct {
		Summary serve.Summary `json:"summary"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, fmt.Errorf("batch response: %w", err)
	}
	d := time.Since(start)
	_, _ = io.Copy(io.Discard, resp.Body) // read to EOF so the connection is reused; the answer is already decoded
	if resp.StatusCode != http.StatusOK || out.Summary.Error != "" {
		return d, fmt.Errorf("batch response: status %d, error %q", resp.StatusCode, out.Summary.Error)
	}
	return d, nil
}
