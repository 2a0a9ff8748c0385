package server

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/harness"
	"github.com/hpcl-repro/epg/internal/logfmt"
)

func testEdgeList(t *testing.T) *graph.EdgeList {
	t.Helper()
	el, err := harness.ResolveDataset("kron-9", harness.DatasetOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return el
}

// testGraph is the homogenized testEdgeList: the start graph of every
// server startServer returns.
func testGraph(t *testing.T) *graph.Simple {
	t.Helper()
	g, err := graph.Homogenize(testEdgeList(t))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := NewFromEdgeList(testEdgeList(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestServerAnswersMatchDirectComputation(t *testing.T) {
	s := startServer(t, Config{Executors: 1})
	b, err := NewBench(testEdgeList(t), 8, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, q := range []Query{
		{Op: OpBFS, Source: 0, Target: 9},
		{Op: OpSSSP, Source: 0, Target: 9},
		{Op: OpPR, Source: 3},
		{Op: OpWCC, Source: 0, Target: 9},
		{Op: OpKHop, Source: 0, K: 2},
	} {
		got := s.Submit(ctx, q)
		if got.Status != StatusOK {
			t.Fatalf("%s: status %q err %q", q.Op, got.Status, got.Err)
		}
		want := b.Run(q, 0, false)
		if got.Value != want.Value {
			t.Errorf("%s: served %v, direct %v", q.Op, got.Value, want.Value)
		}
	}
}

// A served query's modeled time is the query's own: one BFS and one
// SSSP query, each submitted again and again between other queries by
// two clients, report the bits a fresh executor reports for them,
// whichever of the daemon's two executors served each copy.
func TestDaemonExecutorsReportOneModeledTime(t *testing.T) {
	s := startServer(t, Config{Executors: 2})
	b, err := NewBench(testEdgeList(t), 8, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	n := s.NumVertices()
	watched := []Query{{Op: OpBFS, Source: 3, Target: 40}, {Op: OpSSSP, Source: 7, Target: 90}}
	others := append(mixedQueries(n, 30), Query{Op: OpPR, Source: 5}, Query{Op: OpWCC, Source: 1, Target: 2})
	const clients, rounds = 2, 40
	got := make([][]float64, len(watched))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < rounds; i++ {
				for w, q := range watched {
					s.Submit(ctx, others[(c*rounds+2*i+w)%len(others)])
					r := s.Submit(ctx, q)
					if r.Status != StatusOK {
						t.Errorf("%s: status %q err %q", q.Op, r.Status, r.Err)
						return
					}
					mu.Lock()
					got[w] = append(got[w], r.ModeledSec)
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	s.Close()
	for i, e := range s.execs {
		if e.gen == 0 {
			t.Fatalf("executor %d served no query", i)
		}
	}
	for w, q := range watched {
		want := b.Run(q, 0, false).ModeledSec
		for i, sec := range got[w] {
			if math.Float64bits(sec) != math.Float64bits(want) {
				t.Fatalf("%s copy %d of %d: served in %v s, a fresh executor %v s", q.Op, i, len(got[w]), sec, want)
			}
		}
	}
}

func TestServerValidatesQueries(t *testing.T) {
	s := startServer(t, Config{Executors: 1})
	ctx := context.Background()
	n := s.NumVertices()
	for name, q := range map[string]Query{
		"unknown op":       {Op: "pagerank"},
		"source too large": {Op: OpBFS, Source: graph.VID(n), Target: 0},
		"target too large": {Op: OpBFS, Source: 0, Target: graph.VID(n)},
		"negative k":       {Op: OpKHop, Source: 0, K: -1},
		"panic disabled":   {Op: OpPanic},
	} {
		if resp := s.Submit(ctx, q); resp.Status != StatusError {
			t.Errorf("%s: status %q, want error", name, resp.Status)
		}
	}
	if got := s.Metrics().Rejected; got != 5 {
		t.Errorf("rejected counter %d, want 5", got)
	}
	// Rejected queries never count as offered.
	if got := s.Metrics().Offered; got != 0 {
		t.Errorf("offered counter %d, want 0", got)
	}
}

// TestServerPanicIsolation proves a panicking query produces a
// structured response and a counter bump — and the daemon keeps
// serving afterwards.
func TestServerPanicIsolation(t *testing.T) {
	s := startServer(t, Config{Executors: 1, FaultInjection: true})
	ctx := context.Background()
	resp := s.Submit(ctx, Query{Op: OpPanic})
	if resp.Status != StatusPanic {
		t.Fatalf("status %q, want panic", resp.Status)
	}
	if !strings.Contains(resp.Err, "injected fault") {
		t.Fatalf("panic response lost the panic value: %q", resp.Err)
	}
	if got := s.Metrics().Panics; got != 1 {
		t.Fatalf("panic counter %d, want 1", got)
	}
	// The executor that recovered must still serve real queries.
	after := s.Submit(ctx, Query{Op: OpBFS, Source: 0, Target: 1})
	if after.Status != StatusOK {
		t.Fatalf("query after panic: status %q err %q", after.Status, after.Err)
	}
}

func TestServerDeadline(t *testing.T) {
	s := startServer(t, Config{Executors: 1})
	ctx := context.Background()
	full := s.Submit(ctx, Query{Op: OpBFS, Source: 0, Target: 1})
	if full.Status != StatusOK {
		t.Fatalf("full: %+v", full)
	}
	resp := s.Submit(ctx, Query{Op: OpBFS, Source: 0, Target: 1,
		DeadlineSec: full.ModeledSec / 1e3})
	if resp.Status != StatusDeadline {
		t.Fatalf("status %q, want deadline", resp.Status)
	}
	if s.Metrics().DeadlineExceeded != 1 {
		t.Fatalf("deadline counter %d, want 1", s.Metrics().DeadlineExceeded)
	}
}

func TestServerContextCancellation(t *testing.T) {
	s := startServer(t, Config{Executors: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: the executor's hook fires at the first level
	resp := s.Submit(ctx, Query{Op: OpBFS, Source: 0, Target: 1})
	if resp.Status != StatusDeadline {
		t.Fatalf("status %q, want deadline (canceled)", resp.Status)
	}
}

// TestServerQueueBoundUnderFlood floods a tiny queue and proves the
// exact accounting identity and the depth bound from the live
// counters — the daemon-side version of the sim's Conservation.
func TestServerQueueBoundUnderFlood(t *testing.T) {
	const clients, perClient = 16, 25
	s := startServer(t, Config{
		Executors: 1,
		Admit:     AdmitConfig{QueueCap: 2, DegradeWatermark: 1},
	})
	ctx := context.Background()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				src := graph.VID((c*perClient + i) % s.NumVertices())
				s.Submit(ctx, Query{Op: OpBFS, Source: src, Target: 0})
			}
		}(c)
	}
	wg.Wait()
	m := s.Metrics()
	offered := int64(clients * perClient)
	if m.Offered != offered {
		t.Fatalf("offered %d, want %d", m.Offered, offered)
	}
	if m.Admitted+m.ShedQueueFull+m.ShedThrottled != offered {
		t.Fatalf("admitted %d + shed %d+%d != offered %d",
			m.Admitted, m.ShedQueueFull, m.ShedThrottled, offered)
	}
	if m.Completed+m.DeadlineExceeded+m.Errors+m.Panics != m.Admitted {
		t.Fatalf("outcomes %d+%d+%d+%d != admitted %d",
			m.Completed, m.DeadlineExceeded, m.Errors, m.Panics, m.Admitted)
	}
	if got := s.MaxQueueDepth(); got > 2 {
		t.Fatalf("max queue depth %d exceeded cap 2", got)
	}
}

// gateWriter blocks every Write until the gate channel is closed —
// used to wedge the lone executor inside its post-query log call so a
// flood meets a queue that deterministically cannot drain.
type gateWriter struct{ gate chan struct{} }

func (w *gateWriter) Write(p []byte) (int, error) { <-w.gate; return len(p), nil }

// TestServerShedsWhenWedged proves the shed path on the live daemon
// with exact counts: the executor is wedged mid-serve (blocked log
// write), so 8 concurrent submissions against a cap-2 queue must
// admit exactly 2 and shed exactly 6 — no scheduler timing involved,
// because admission decisions are made while the executor provably
// cannot dequeue.
func TestServerShedsWhenWedged(t *testing.T) {
	gate := make(chan struct{})
	s, err := NewFromEdgeList(testEdgeList(t), Config{
		Executors: 1,
		Admit:     AdmitConfig{QueueCap: 2, DegradeWatermark: 2},
		QueryLog:  &gateWriter{gate: gate},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Submit(ctx, Query{Op: OpBFS, Source: 9, Target: 0})
	}()
	// depth is incremented at admission and released at dequeue, so
	// Admitted==1 && depth==0 can only mean the executor has picked the
	// query up — and it cannot finish, the gate blocks its log write.
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().Admitted != 1 || s.QueueDepth() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("executor never picked up the wedge query")
		}
		time.Sleep(10 * time.Microsecond)
	}
	const flooders = 8
	for c := 0; c < flooders; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s.Submit(ctx, Query{Op: OpBFS, Source: graph.VID(c), Target: 0})
		}(c)
	}
	// Admission counters move before any (possibly gate-blocked) log
	// write, so waiting on them observes every decision.
	for {
		m := s.Metrics()
		if m.Offered == 1+flooders && m.Admitted+m.ShedQueueFull == 1+flooders {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flood decisions never completed: %+v", s.Metrics())
		}
		time.Sleep(10 * time.Microsecond)
	}
	close(gate)
	wg.Wait()
	m := s.Metrics()
	if m.Admitted != 3 || m.ShedQueueFull != flooders-2 {
		t.Errorf("wedged cap-2 queue: admitted %d shed %d, want 3 and %d",
			m.Admitted, m.ShedQueueFull, flooders-2)
	}
	if got := s.MaxQueueDepth(); got != 2 {
		t.Errorf("max queue depth %d, want exactly 2", got)
	}
}

func TestServerQueryLog(t *testing.T) {
	var buf bytes.Buffer
	el := testEdgeList(t)
	s, err := NewFromEdgeList(el, Config{Executors: 1, QueryLog: &buf,
		Admit: AdmitConfig{QueueCap: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Submit(context.Background(), Query{Op: OpBFS, Source: 0, Target: 5})
	s.Submit(context.Background(), Query{Op: OpPR, Source: 1})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("query log has %d lines, want 2:\n%s", len(lines), buf.String())
	}
	rec, err := logfmt.ParseQuery(lines[0])
	if err != nil {
		t.Fatal(err)
	}
	if rec.Op != "bfs" || rec.Status != "ok" || rec.ModeledUS <= 0 {
		t.Errorf("bad first record: %+v", rec)
	}
}

// TestServerSoak is the race-enabled soak: concurrent clients mixing
// every op with injected panics, tight deadlines, and client
// cancellations against multiple executors. Run under -race in CI
// (serving job); the assertions are the conservation identity and
// zero lost responses.
func TestServerSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	s := startServer(t, Config{
		Executors:      2,
		FaultInjection: true,
		Admit:          AdmitConfig{QueueCap: 8, DegradeWatermark: 2},
	})
	const clients, perClient = 8, 30
	var wg sync.WaitGroup
	var responses sync.Map
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				q := Query{Source: graph.VID((c + i) % s.NumVertices()),
					Target: graph.VID(i % s.NumVertices())}
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				switch i % 6 {
				case 0:
					q.Op = OpBFS
				case 1:
					q.Op = OpSSSP
				case 2:
					q.Op = OpPR
				case 3:
					q.Op = OpPanic
				case 4:
					q.Op = OpBFS
					q.DeadlineSec = 1e-9 // guaranteed truncation
				default:
					q.Op = OpKHop
					q.K = 2
					if i%2 == 0 {
						ctx, cancel = context.WithTimeout(ctx, time.Microsecond)
					}
				}
				resp := s.Submit(ctx, q)
				cancel()
				if resp.Status == "" {
					t.Error("empty response status")
				}
				responses.Store([2]int{c, i}, resp.Status)
			}
		}(c)
	}
	wg.Wait()
	count := 0
	responses.Range(func(_, _ any) bool { count++; return true })
	if count != clients*perClient {
		t.Fatalf("%d responses for %d requests", count, clients*perClient)
	}
	m := s.Metrics()
	if m.Panics == 0 {
		t.Error("soak injected panics but counter is zero")
	}
	if m.Admitted+m.ShedQueueFull+m.ShedThrottled != m.Offered {
		t.Fatalf("conservation violated: %+v", m)
	}
	if got := s.MaxQueueDepth(); got > 8 {
		t.Fatalf("queue depth %d exceeded cap 8", got)
	}
	// The daemon survived: a final query still completes.
	final := s.Submit(context.Background(), Query{Op: OpBFS, Source: 0, Target: 1})
	if final.Status != StatusOK {
		t.Fatalf("post-soak query: %+v", final)
	}
}

// Drain refuses new work without stopping the executors: the query in
// service and the one queued behind it when the drain began both still
// get their answer, and nothing refused enters the admission ledger.
func TestDrainRefusesNewWorkAndServesTheAdmitted(t *testing.T) {
	gate := make(chan struct{})
	s, err := NewFromEdgeList(testEdgeList(t), Config{Executors: 1, QueryLog: &gateWriter{gate: gate}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	answers := make(chan Response, 2)
	submit := func(src graph.VID) { answers <- s.Submit(ctx, Query{Op: OpBFS, Source: src, Target: 0}) }
	go submit(9)
	// As in TestServerShedsWhenWedged: picked up, and held at its log write.
	waitUntil(t, func() bool { return s.Metrics().Admitted == 1 && s.QueueDepth() == 0 })
	go submit(5)
	waitUntil(t, func() bool { return s.Metrics().Admitted == 2 })

	s.Drain()
	if resp := s.Submit(ctx, Query{Op: OpBFS, Source: 1, Target: 0}); resp.Status != StatusError {
		t.Errorf("query after Drain: %+v, want a closed error", resp)
	}
	if _, err := s.Mutate(ctx, graph.Batch{}); !errors.Is(err, ErrClosed) {
		t.Errorf("mutate after Drain: %v, want ErrClosed", err)
	}
	close(gate)
	for i := 0; i < 2; i++ {
		if resp := <-answers; resp.Status != StatusOK {
			t.Errorf("query admitted before Drain: %+v, want OK", resp)
		}
	}
	if m := s.Metrics(); m.Offered != 2 || m.Admitted != 2 || m.Completed != 2 {
		t.Errorf("after the drain: %+v, want 2 offered, admitted and completed", m)
	}
}
