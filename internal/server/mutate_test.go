package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/hpcl-repro/epg/internal/graph"
)

// postJSON posts a JSON body and decodes the response.
func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
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

// testBatch deletes one present edge and inserts two absent ones.
func testBatch(t *testing.T) graph.Batch {
	t.Helper()
	c := testGraph(t).Out
	var v0 graph.VID
	for int(v0) < c.NumVertices && c.Degree(v0) == 0 {
		v0++
	}
	if int(v0) == c.NumVertices {
		t.Fatal("empty graph")
	}
	n := graph.VID(c.NumVertices)
	pick := func(start graph.VID) graph.VID {
		for u := start; ; u = (u + 1) % n {
			if u != v0 && !c.HasEdge(v0, u) {
				return u
			}
		}
	}
	a := pick(v0 + 1)
	b := pick(a + 1)
	return graph.Batch{
		{Op: graph.MutDelete, Src: v0, Dst: c.Neighbors(v0)[0]},
		{Op: graph.MutInsert, Src: v0, Dst: a, W: 0.5},
		{Op: graph.MutInsert, Src: v0, Dst: b, W: 0.25},
	}
}

// httpOps renders a batch as the /v1/mutate wire body.
func httpOps(batch graph.Batch) map[string]any {
	var ops []map[string]any
	for _, mu := range batch {
		kind := "insert"
		if mu.Op == graph.MutDelete {
			kind = "delete"
		}
		ops = append(ops, map[string]any{"op": kind, "src": int(mu.Src), "dst": int(mu.Dst), "w": mu.W})
	}
	return map[string]any{"ops": ops}
}

// hazardBatches are three batches of which the second deletes the edge
// the first inserted — the hazard that left a stale WCC add behind when
// batches accumulate unmaintained — and the vertices of that edge: lone
// is isolated in testGraph, so v0-lone bridges two components.
func hazardBatches(t *testing.T) (batches []graph.Batch, v0, lone graph.VID) {
	t.Helper()
	base := testBatch(t) // delete v0-x, insert v0-a, insert v0-b
	v0 = base[0].Src
	for c := testGraph(t).Out; c.Degree(lone) != 0; {
		lone++
	}
	return []graph.Batch{
		{{Op: graph.MutInsert, Src: v0, Dst: lone, W: 0.75}},
		{{Op: graph.MutDelete, Src: v0, Dst: lone}, base[1]},
		{base[0], base[2]},
	}, v0, lone
}

// The HTTP mutate endpoint: applies a batch, reports stats, bumps the
// sketch generation; malformed bodies and batches are the client's 400.
func TestHTTPMutate(t *testing.T) {
	_, ts := startHTTP(t, Config{Executors: 1})
	var ops []map[string]any
	for _, mu := range testBatch(t) {
		kind := "insert"
		if mu.Op == graph.MutDelete {
			kind = "delete"
		}
		ops = append(ops, map[string]any{
			"op": kind, "src": int(mu.Src), "dst": int(mu.Dst), "w": mu.W,
		})
	}
	var out struct {
		Status    string `json:"status"`
		Inserted  int    `json:"inserted"`
		Deleted   int    `json:"deleted"`
		SketchGen uint64 `json:"sketch_gen"`
	}
	if code := postJSON(t, ts.URL+"/v1/mutate", map[string]any{"ops": ops}, &out); code != 200 {
		t.Fatalf("mutate: HTTP %d", code)
	}
	if out.Status != "ok" || out.Inserted != 2 || out.Deleted != 1 || out.SketchGen != 2 {
		t.Fatalf("mutate response %+v", out)
	}

	var e apiError
	if code := postJSON(t, ts.URL+"/v1/mutate", map[string]any{"ops": []map[string]any{
		{"op": "teleport", "src": 0, "dst": 1},
	}}, &e); code != 400 || e.Code != codeInvalidQuery {
		t.Fatalf("unknown op kind: HTTP %d code %q", code, e.Code)
	}
	if code := postJSON(t, ts.URL+"/v1/mutate", map[string]any{"ops": []map[string]any{
		{"op": "insert", "src": 0, "dst": 99999999},
	}}, &e); code != 400 || e.Code != codeInvalidQuery {
		t.Fatalf("out-of-range mutation: HTTP %d code %q", code, e.Code)
	}
	resp, err := http.Post(ts.URL+"/v1/mutate", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad body: HTTP %d", resp.StatusCode)
	}
}

// Two mutates in flight over HTTP report the two generations they
// published, 2 and 3, whichever commits first: each reply carries the
// generation its own maintenance stored, not one read after the fact.
func TestHTTPConcurrentMutatesReportTheirGenerations(t *testing.T) {
	_, ts := startHTTP(t, Config{Executors: 2})
	batch := testBatch(t)
	gens := make([]uint64, 2)
	var wg sync.WaitGroup
	for i := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out struct {
				SketchGen uint64 `json:"sketch_gen"`
			}
			if code := postJSON(t, ts.URL+"/v1/mutate", httpOps(batch[i:i+1]), &out); code != 200 {
				t.Errorf("mutate %d: HTTP %d", i, code)
			}
			gens[i] = out.SketchGen
		}()
	}
	wg.Wait()
	if slices.Sort(gens); !slices.Equal(gens, []uint64{2, 3}) {
		t.Fatalf("two concurrent mutates report generations %v, want [2 3]", gens)
	}
}

// Bodies a hostile or broken client sends to /v1/mutate are refused
// with the structured error before anything is queued: over the byte
// cap or the op cap is a 413, truncated or mistyped JSON a 400, and the
// graph is left as it was.
func TestHTTPMutateRejectsHostileBodies(t *testing.T) {
	s, ts := startHTTP(t, Config{Executors: 1})
	ops := func(n int) string { // n self-loop inserts: valid, and dropped by the apply
		return `{"ops":[` + strings.TrimSuffix(strings.Repeat(`{"op":"insert","src":0,"dst":0,"w":0.5},`, n), ",") + `]}`
	}
	for _, c := range []struct {
		name, body string
		status     int
		code       string
	}{
		{"body over the byte cap", `{"ops":[],"pad":"` + strings.Repeat("x", maxMutateBodyBytes) + `"}`, 413, codeTooLarge},
		{"batch over the op cap", ops(maxMutateOps + 1), 413, codeTooLarge},
		{"truncated", `{"ops":[{"op":"insert","src":1`, 400, codeInvalidQuery},
		{"ops not a list", `{"ops":"all of them"}`, 400, codeInvalidQuery},
		{"vertex not a number", `{"ops":[{"op":"insert","src":"zero","dst":1}]}`, 400, codeInvalidQuery},
		{"vertex negative", `{"ops":[{"op":"insert","src":-1,"dst":1}]}`, 400, codeInvalidQuery},
		{"not an object", `[1,2,3]`, 400, codeInvalidQuery},
	} {
		resp, err := http.Post(ts.URL+"/v1/mutate", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var e apiError
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil || resp.StatusCode != c.status || e.Code != c.code || e.Message == "" {
			t.Errorf("%s: HTTP %d body %+v (decode: %v), want %d %q with a message", c.name, resp.StatusCode, e, err, c.status, c.code)
		}
	}
	if gen := s.pub.Load().gen; gen != 1 {
		t.Errorf("a refused body reached maintenance: sketch generation %d, want 1", gen)
	}
	// The caps are limits, not off-by-one traps: a batch of exactly the
	// op cap goes through.
	if code := postJSON(t, ts.URL+"/v1/mutate", json.RawMessage(ops(maxMutateOps)), nil); code != 200 {
		t.Errorf("a batch of exactly %d ops: HTTP %d, want 200", maxMutateOps, code)
	}
}

// A mutate arriving while the bounded queue is full is shed like any
// other maintenance: 429 with agreeing Retry-After header and body.
func TestHTTPMutateShed(t *testing.T) {
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
	defer openGate()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wedged := make(chan struct{})
	go func() {
		defer close(wedged)
		if resp, err := http.Get(ts.URL + "/v1/query?op=bfs&src=0&dst=1"); err == nil {
			resp.Body.Close()
		}
	}()
	waitUntil(t, func() bool { return s.Metrics().Admitted == 1 && s.QueueDepth() == 0 })
	fill := make(chan struct{})
	go func() {
		defer close(fill)
		if resp, err := http.Get(ts.URL + "/v1/query?op=bfs&src=2&dst=1"); err == nil {
			resp.Body.Close()
		}
	}()
	waitUntil(t, func() bool { return s.Metrics().Admitted == 2 })

	b, _ := json.Marshal(map[string]any{"ops": []map[string]any{{"op": "insert", "src": 0, "dst": 1, "w": 0.5}}})
	resp, err := http.Post(ts.URL+"/v1/mutate", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 429 {
		t.Fatalf("mutate on full queue: HTTP %d, want 429", resp.StatusCode)
	}
	var e apiError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Code != codeShed || e.RetryAfterMS != shedRetryAfterMS {
		t.Errorf("shed body %+v", e)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	openGate()
	<-wedged
	<-fill
}

// The incremental swap must not re-pay structure construction: the
// modeled cost of a small mutate (apply + incremental PR/WCC + swap)
// stays strictly below a fresh executor's build + full recompute.
func TestMutateCheaperThanFullRecompute(t *testing.T) {
	s := startServer(t, Config{Executors: 1})
	e := s.maint
	batch := testBatch(t)
	before := e.m.Elapsed()
	if _, err := s.Mutate(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	incCost := e.m.Elapsed() - before

	// The displaced alternative: what startup paid to build structures
	// and compute vectors from scratch (construction included).
	ref := newExecutor(testGraph(t), s.cfg.Threads, false)
	if _, err := ref.computeVectors(); err != nil {
		t.Fatal(err)
	}
	fullCost := ref.m.Elapsed()
	if incCost >= fullCost {
		t.Fatalf("incremental mutate swap (%v) not cheaper than build+recompute (%v)", incCost, fullCost)
	}
}
