package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
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

// oracle is the mutation oracle: what a server started directly on the
// edge list left by applying batches, in order, to testGraph answers to
// a fixed list of queries covering every kind (extra queries join it),
// and that graph's out-adjacency.
type oracle struct {
	queries []Query
	want    []Response
	post    *graph.CSR
}

func newOracle(t *testing.T, batches []graph.Batch, extra ...Query) *oracle {
	t.Helper()
	g := testGraph(t)
	shadow := graph.NewMutableCSR(g.Out, g.Directed)
	for _, b := range batches {
		if _, err := shadow.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	post := shadow.CSR()
	postEL := &graph.EdgeList{NumVertices: post.NumVertices, Weighted: post.Weights != nil, Directed: g.Directed}
	for v := 0; v < post.NumVertices; v++ {
		ws := post.NeighborWeights(graph.VID(v))
		for i, u := range post.Neighbors(graph.VID(v)) {
			if !g.Directed && u < graph.VID(v) {
				continue
			}
			e := graph.Edge{Src: graph.VID(v), Dst: u}
			if ws != nil {
				e.W = ws[i]
			}
			postEL.Edges = append(postEL.Edges, e)
		}
	}
	ref, err := NewFromEdgeList(postEL, Config{Executors: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	o := &oracle{post: post, queries: append([]Query{
		{Op: OpPR, Source: 3},
		{Op: OpPR, Source: 0},
		{Op: OpWCC, Source: 0, Target: 9},
		{Op: OpBFS, Source: 0, Target: 9},
		{Op: OpSSSP, Source: 0, Target: 9},
		{Op: OpKHop, Source: 0, K: 2},
	}, extra...)}
	for _, q := range o.queries {
		resp := ref.Submit(context.Background(), q)
		if resp.Status != StatusOK {
			t.Fatalf("fresh server: %s: status %q %s", q.Op, resp.Status, resp.Err)
		}
		o.want = append(o.want, resp)
	}
	return o
}

// check puts every oracle query to answer and requires the oracle's value.
func (o *oracle) check(t *testing.T, who string, answer func(Query) Response) {
	t.Helper()
	for i, q := range o.queries {
		got := answer(q)
		if got.Status != StatusOK {
			t.Fatalf("%s: %s: status %q %s", who, q.Op, got.Status, got.Err)
		}
		if got.Value != o.want[i].Value {
			t.Errorf("%s: %s src=%d dst=%d: mutated server answers %v, fresh server %v",
				who, q.Op, q.Source, q.Target, got.Value, o.want[i].Value)
		}
	}
}

// checkExecutors requires the oracle's answers of each executor of s in
// turn, serving from pub (and, degraded, the estimate of a sketch rebuilt
// on the oracle's graph), so a stale executor cannot hide behind a fresh
// one. s must be closed: the test owns the executors.
func (o *oracle) checkExecutors(t *testing.T, s *Server, pub *published) {
	t.Helper()
	ctx := context.Background()
	est := BuildSketch(o.post, s.cfg.Landmarks).EstimateHops(0, 9)
	for i, e := range s.execs {
		who := fmt.Sprintf("executor %d on generation %d", i, pub.gen)
		o.check(t, who, func(q Query) Response { return e.run(ctx, q, 0, false, pub) })
		if got := e.run(ctx, Query{Op: OpBFS, Source: 0, Target: 9}, 0, true, pub); !got.Degraded || got.Value != est {
			t.Errorf("%s: degraded bfs answers %v (degraded=%v), a sketch rebuilt on that graph %v", who, got.Value, got.Degraded, est)
		}
	}
}

// assertAnswersMatchFreshServer holds s to the oracle of batches:
// through Submit, and then, with s closed, on each executor in turn; and
// the published sketch must be the one a rebuild on that graph gives.
func assertAnswersMatchFreshServer(t *testing.T, s *Server, batches []graph.Batch, extra ...Query) {
	t.Helper()
	o := newOracle(t, batches, extra...)
	o.check(t, "submit", func(q Query) Response { return s.Submit(context.Background(), q) })
	s.Close()
	pub := s.pub.Load()
	if fresh := BuildSketch(o.post, s.cfg.Landmarks); !reflect.DeepEqual(pub.sketch, fresh) {
		t.Errorf("published sketch differs from a rebuild on the post-batch graph (landmarks %v, rebuilt %v)",
			pub.sketch.landmarks, fresh.landmarks)
	}
	o.checkExecutors(t, s, pub)
}

// After a mutate, every query kind must answer exactly as a server
// freshly built on the post-batch graph would.
func TestMutateAnswersMatchFreshServer(t *testing.T) {
	s := startServer(t, Config{Executors: 2})
	batch := testBatch(t)
	rep, err := s.Mutate(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Deleted != 1 || rep.Stats.Inserted != 2 {
		t.Fatalf("batch stats %+v", rep.Stats)
	}
	if s.SketchGeneration() != 2 {
		t.Fatalf("sketch generation %d after mutate, want 2", s.SketchGeneration())
	}
	assertAnswersMatchFreshServer(t, s, []graph.Batch{batch})
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

// An executor that served nothing while the graph moved on: one of two
// executors is wedged (blocked in its query-log write) while the three
// hazard batches are acknowledged through the other over /v1/mutate.
// Then the roles flip: the executor that ran the maintenance is wedged
// and a /v1/refresh lands on the idle one, which has never bound
// anything newer than the start graph. Each acknowledged maintenance
// is one generation, and every answer — on each executor — must equal
// the fresh-server oracle's.
func TestIdleExecutorServesNewestEpoch(t *testing.T) {
	w := &resettableGate{}
	s, ts := startHTTP(t, Config{Executors: 2, QueryLog: w})
	batches, v0, lone := hazardBatches(t)

	// wedge sends a query that its executor serves and then blocks
	// logging, and returns once that executor has dequeued it.
	admitted := int64(0)
	wedge := func(gate chan struct{}) chan struct{} {
		w.set(gate)
		done := make(chan struct{})
		go func() {
			defer close(done)
			if resp, err := http.Get(ts.URL + "/v1/query?op=bfs&src=0&dst=1"); err == nil {
				resp.Body.Close()
			}
		}()
		admitted++
		waitUntil(t, func() bool { return s.Metrics().Admitted == admitted && s.QueueDepth() == 0 })
		return done
	}

	gateA := make(chan struct{})
	doneA := wedge(gateA)
	// The first executor must hold gateA before gateB is armed, or it
	// blocks on gateB, which is closed only after doneA.
	waitUntil(t, func() bool { return w.waiting() == 1 })
	for i, b := range batches {
		if code := postJSON(t, ts.URL+"/v1/mutate", httpOps(b), nil); code != 200 {
			t.Fatalf("mutate %d: HTTP %d", i, code)
		}
	}
	if gen := s.SketchGeneration(); gen != 4 {
		t.Fatalf("after three mutates past a wedged executor: generation %d, want 4", gen)
	}

	// Flip: the second wedge query can only go to the executor that ran
	// the mutates, which queues behind the first on the log; releasing
	// the first then leaves it blocked on its own gate.
	gateB := make(chan struct{})
	doneB := wedge(gateB)
	close(gateA)
	<-doneA
	if code := postJSON(t, ts.URL+"/v1/refresh", map[string]any{}, nil); code != 200 {
		t.Fatalf("refresh on the idle executor: HTTP %d", code)
	}
	if gen := s.SketchGeneration(); gen != 5 {
		t.Fatalf("after the refresh: generation %d, want 5", gen)
	}
	close(gateB)
	<-doneB

	assertAnswersMatchFreshServer(t, s, batches, Query{Op: OpWCC, Source: v0, Target: lone})
}

// Two mutates in flight at once on a two-executor server are dequeued
// by one executor each, and both run on the one maintainer, one at a
// time: both batches must be published (they touch disjoint rows, so
// the oracle does not need the order they committed in) and every
// executor must answer as a fresh server on them.
func TestConcurrentMutatesKeepExecutorsInStep(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		s := startServer(t, Config{Executors: 2})
		base := testGraph(t).Out
		// Three inserts of absent edges at src, starting the search at from.
		inserts := func(src, from graph.VID) graph.Batch {
			var b graph.Batch
			for u := from; len(b) < 3; u++ {
				if u != src && !base.HasEdge(src, u) {
					b = append(b, graph.Mutation{Op: graph.MutInsert, Src: src, Dst: u, W: 0.5})
				}
			}
			return b
		}
		batches := []graph.Batch{inserts(0, 100), inserts(1, 200)}
		var wg sync.WaitGroup
		for _, b := range batches {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := s.Mutate(context.Background(), b); err != nil {
					t.Errorf("trial %d: mutate: %v", trial, err)
				}
			}()
		}
		wg.Wait()
		if gen := s.SketchGeneration(); gen != 3 {
			t.Fatalf("trial %d: generation %d after two mutates, want 3", trial, gen)
		}
		assertAnswersMatchFreshServer(t, s, batches,
			Query{Op: OpKHop, Source: 0, K: 1}, Query{Op: OpKHop, Source: 1, K: 1})
		if t.Failed() {
			t.Fatalf("trial %d: executors diverged", trial)
		}
	}
}

// Queries racing a live mutate are never dropped: every response is a
// legitimate outcome (no errors), and the server stays consistent.
func TestMutateDoesNotDropConcurrentQueries(t *testing.T) {
	s := startServer(t, Config{Executors: 2, Admit: AdmitConfig{QueueCap: 256}})
	batch := testBatch(t)
	ctx := context.Background()
	const queries = 60
	var wg sync.WaitGroup
	errs := make(chan string, queries)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Mutate(ctx, batch); err != nil {
			errs <- "mutate: " + err.Error()
		}
	}()
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := Query{Op: OpPR, Source: graph.VID(i % s.NumVertices())}
			if i%3 == 0 {
				q = Query{Op: OpBFS, Source: graph.VID(i % s.NumVertices()), Target: 1}
			}
			resp := s.Submit(ctx, q)
			if resp.Status != StatusOK {
				errs <- string(q.Op) + ": " + string(resp.Status) + " " + resp.Err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	m := s.Metrics()
	if got := m.Completed + m.DeadlineExceeded + m.Errors + m.Panics; got != m.Admitted {
		t.Errorf("outcome identity broken: %d outcomes, %d admitted", got, m.Admitted)
	}
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
	if gen := s.SketchGeneration(); gen != 1 {
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

// A refresh with no pending mutations swaps cached vectors: it must
// not re-run the full kernels (the old behavior double-charged a full
// PR+WCC on every refresh), only the sketch rebuild remains unmodeled.
func TestRefreshDoesNotRecomputeWithoutMutations(t *testing.T) {
	s := startServer(t, Config{Executors: 1})
	e := s.maint
	before := e.m.Elapsed()
	if err := s.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if after := e.m.Elapsed(); after != before {
		t.Fatalf("no-op refresh moved the maintainer's modeled clock: %v -> %v", before, after)
	}
	if s.SketchGeneration() != 2 {
		t.Fatalf("refresh did not bump sketch generation: %d", s.SketchGeneration())
	}
}

// Closed servers reject mutates with the typed error.
func TestMutateClosed(t *testing.T) {
	s := startServer(t, Config{Executors: 1})
	s.Close()
	if _, err := s.Mutate(context.Background(), graph.Batch{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("mutate after close: %v", err)
	}
}
