package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func startHTTP(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := startServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(10 * time.Microsecond)
	}
}

func TestHTTPQuery(t *testing.T) {
	s, ts := startHTTP(t, Config{Executors: 1})
	var r Response
	if code := getJSON(t, ts.URL+"/v1/query?op=bfs&src=0&dst=9", &r); code != 200 {
		t.Fatalf("bfs query: HTTP %d", code)
	}
	if r.Status != StatusOK || r.ModeledSec <= 0 || r.Gen != 1 {
		t.Fatalf("bfs response: %+v", r)
	}
	if r.Value < 0 || int(r.Value) >= s.NumVertices() {
		t.Fatalf("bfs depth %v out of range", r.Value)
	}
}

func TestHTTPValidation(t *testing.T) {
	_, ts := startHTTP(t, Config{Executors: 1})
	for _, tc := range []struct {
		path string
		code int
	}{
		{"/v1/query?op=bfs&src=0&dst=9", 200},
		{"/v1/query?op=pr&src=1", 200},
		{"/v1/query?op=khop&src=0&k=2", 200},
		{"/v1/query?op=nope&src=0", 400},     // unknown op
		{"/v1/query?op=bfs&src=banana", 400}, // unparsable src
		{"/v1/query?op=bfs&src=999999", 400}, // out of range
		{"/v1/query?op=khop&src=0&k=-3", 400},
		{"/v1/query?op=panic", 400}, // fault injection off
		{"/v1/query?op=bfs&src=0&dst=1&deadline_ms=bad", 400},
		{"/v1/healthz", 200},
		{"/v1/metrics", 200},
	} {
		if code := getJSON(t, ts.URL+tc.path, nil); code != tc.code {
			t.Errorf("%s: HTTP %d, want %d", tc.path, code, tc.code)
		}
	}
}

func TestHTTPDeadline504(t *testing.T) {
	_, ts := startHTTP(t, Config{Executors: 1})
	var e apiError
	code := getJSON(t, ts.URL+"/v1/query?op=bfs&src=0&dst=1&deadline_ms=0.000001", &e)
	if code != 504 || e.Code != codeDeadline {
		t.Fatalf("tiny deadline: HTTP %d code %q, want 504 %q", code, e.Code, codeDeadline)
	}
	if e.Message == "" {
		t.Error("504 without message")
	}
}

func TestHTTPPanic500(t *testing.T) {
	_, ts := startHTTP(t, Config{Executors: 1, FaultInjection: true})
	var e apiError
	code := getJSON(t, ts.URL+"/v1/query?op=panic", &e)
	if code != 500 || e.Code != codePanic {
		t.Fatalf("injected panic: HTTP %d code %q, want 500 %q", code, e.Code, codePanic)
	}
}

// The API lives under /v1 only: the unversioned paths are not routed,
// whatever the method, and the /v1 non-200s carry the structured error
// body.
func TestHTTPUnversionedPaths404(t *testing.T) {
	_, ts := startHTTP(t, Config{Executors: 1})
	for _, path := range []string{"/query?op=pr&src=1", "/metrics", "/healthz", "/refresh", "/mutate"} {
		if code := getJSON(t, ts.URL+path, nil); code != 404 {
			t.Errorf("GET %s: HTTP %d, want 404", path, code)
		}
		if code := postJSON(t, ts.URL+path, map[string]any{}, nil); code != 404 {
			t.Errorf("POST %s: HTTP %d, want 404", path, code)
		}
	}
	var e apiError
	if code := getJSON(t, ts.URL+"/v1/refresh", &e); code != 405 || e.Code != codeMethodNotAllowed {
		t.Errorf("GET /v1/refresh: HTTP %d code %q, want 405 %q", code, e.Code, codeMethodNotAllowed)
	}
	if code := getJSON(t, ts.URL+"/v1/mutate", &e); code != 405 || e.Code != codeMethodNotAllowed {
		t.Errorf("GET /v1/mutate: HTTP %d code %q, want 405 %q", code, e.Code, codeMethodNotAllowed)
	}
}

// TestHTTPShed429 wedges the lone executor (gate-blocked query log)
// and then overflows the cap-1 queue over HTTP: the overflow request
// must come back 429 with a Retry-After header.
func TestHTTPShed429(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	openGate := func() { once.Do(func() { close(gate) }) }
	s, err := NewFromEdgeList(testEdgeList(t), Config{
		Executors: 1,
		Admit:     AdmitConfig{QueueCap: 1, DegradeWatermark: 1},
		QueryLog:  &gateWriter{gate: gate},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer openGate() // unwedge before Close on every exit path
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bgGet := func(path string) chan struct{} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			if resp, err := http.Get(ts.URL + path); err == nil {
				resp.Body.Close()
			}
		}()
		return done
	}
	// Wedge query: admitted, dequeued (depth back to 0), held at the gate.
	wedged := bgGet("/v1/query?op=bfs&src=0&dst=1")
	waitUntil(t, func() bool { return s.Metrics().Admitted == 1 && s.QueueDepth() == 0 })
	// Fill the cap-1 queue: admission bumps depth to 1 synchronously.
	fill := bgGet("/v1/query?op=bfs&src=2&dst=1")
	waitUntil(t, func() bool { return s.Metrics().Admitted == 2 })

	// The overflow request sheds, but its response is written only
	// after logShed gets logMu — which the wedged executor holds — so
	// collect it in the background, wait on the counter (bumped before
	// logging), and only then open the gate.
	shedResp := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/query?op=bfs&src=3&dst=1")
		if err != nil {
			t.Error(err)
			shedResp <- nil
			return
		}
		shedResp <- resp
	}()
	waitUntil(t, func() bool { return s.Metrics().ShedQueueFull == 1 })
	openGate()
	resp := <-shedResp
	if resp == nil {
		t.FailNow()
	}
	defer resp.Body.Close()
	if resp.StatusCode != 429 {
		t.Fatalf("flooded query: HTTP %d, want 429", resp.StatusCode)
	}
	// The Retry-After header and the structured body's hint must agree
	// (header in whole seconds, body in milliseconds).
	var e apiError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Code != codeShed || e.RetryAfterMS != shedRetryAfterMS {
		t.Errorf("429 body %+v, want code %q retry_after_ms %d", e, codeShed, shedRetryAfterMS)
	}
	if ra := resp.Header.Get("Retry-After"); ra != strconv.Itoa(shedRetryAfterMS/1000) {
		t.Errorf("Retry-After header %q disagrees with body hint %dms", ra, shedRetryAfterMS)
	}
	<-wedged
	<-fill
	var m MetricsSnapshot
	if code := getJSON(t, ts.URL+"/v1/metrics", &m); code != 200 {
		t.Fatalf("metrics: HTTP %d", code)
	}
	if m.ShedQueueFull != 1 {
		t.Errorf("shed counter %d, want 1", m.ShedQueueFull)
	}
}

func TestHTTPMetricsShape(t *testing.T) {
	_, ts := startHTTP(t, Config{Executors: 1})
	getJSON(t, ts.URL+"/v1/query?op=bfs&src=0&dst=9", nil)
	var m struct {
		MetricsSnapshot
		QueueDepth    int `json:"queue_depth"`
		MaxQueueDepth int `json:"max_queue_depth"`
	}
	if code := getJSON(t, ts.URL+"/v1/metrics", &m); code != 200 {
		t.Fatalf("metrics: HTTP %d", code)
	}
	if m.Offered != 1 || m.Completed != 1 {
		t.Errorf("metrics after one query: %+v", m)
	}
}

// POST /v1/refresh is the empty mutate: an empty body, and the next
// generation.
func TestHTTPRefresh(t *testing.T) {
	_, ts := startHTTP(t, Config{Executors: 1})
	resp, err := http.Post(ts.URL+"/v1/refresh", "application/json", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		SketchGen uint64 `json:"sketch_gen"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if resp.StatusCode != 200 || err != nil || out.SketchGen != 2 {
		t.Fatalf("refresh: HTTP %d, sketch_gen %d (%v), want 200 and 2", resp.StatusCode, out.SketchGen, err)
	}
	if code := getJSON(t, ts.URL+"/v1/refresh", nil); code != 405 {
		t.Fatalf("GET /refresh: HTTP %d, want 405", code)
	}
}
