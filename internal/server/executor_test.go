package server

import (
	"context"
	"math"
	"runtime"
	"slices"
	"testing"

	"github.com/hpcl-repro/epg/internal/alloctest"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/harness"
)

func testExecutor(t *testing.T, dataset string) (*executor, *published) {
	t.Helper()
	el, err := harness.ResolveDataset(dataset, harness.DatasetOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBench(el, 8, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	return b.exec, b.pub
}

// mixedQueries draws count traversal queries over the three ops that
// run through the executor's reusable scratch.
func mixedQueries(n, count int) []Query {
	qs := make([]Query, 0, count)
	for i := 0; i < count; i++ {
		src, dst := graph.VID((i*37+1)%n), graph.VID((i*101+5)%n)
		switch i % 3 {
		case 0:
			qs = append(qs, Query{Op: OpBFS, Source: src, Target: dst})
		case 1:
			qs = append(qs, Query{Op: OpSSSP, Source: src, Target: dst})
		case 2:
			qs = append(qs, Query{Op: OpKHop, Source: src, K: 1 + i%3})
		}
	}
	return qs
}

// The executor's machine keeps no trace: it only ever reads the clock.
// The clock still runs: each query reads a positive modeled time, and
// it is what the clock reads when the query is done.
func TestExecutorKeepsNoTrace(t *testing.T) {
	e, pub := testExecutor(t, "kron-9")
	for _, q := range mixedQueries(pub.epoch.Out().NumVertices, 60) {
		resp := e.run(nil, q, 0, false, pub)
		if resp.Status != StatusOK {
			t.Fatalf("%+v: %s %s", q, resp.Status, resp.Err)
		}
		if resp.ModeledSec <= 0 || resp.ModeledSec != e.m.Elapsed() {
			t.Fatalf("%+v: modeled %v s, clock %v s with tracing off", q, resp.ModeledSec, e.m.Elapsed())
		}
	}
	if n := len(e.m.Trace()); n != 0 {
		t.Fatalf("executor machine retained %d trace regions after 60 queries", n)
	}
}

// khopOracle is the walk the executor used to do: a map for the
// visited set, a fresh slice per level.
func khopOracle(c *graph.CSR, src graph.VID, k int) float64 {
	seen := map[graph.VID]bool{src: true}
	frontier := []graph.VID{src}
	for level := 0; level < k && len(frontier) > 0; level++ {
		var next []graph.VID
		for _, v := range frontier {
			for _, u := range c.Neighbors(v) {
				if !seen[u] {
					seen[u] = true
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	return float64(len(seen))
}

// One executor serving query after query through its reused results
// and k-hop scratch answers exactly what a fresh executor answers to
// each query alone, charges the same regions for it and reports the
// same modeled time, bit for bit. A query starts the clock and the
// trace, so its regions are the whole trace.
func TestExecutorScratchReuseMatchesFresh(t *testing.T) {
	reused, pub := testExecutor(t, "kron-9")
	reused.m.SetTracing(true)
	for _, q := range mixedQueries(pub.epoch.Out().NumVertices, 45) {
		got := reused.run(nil, q, 0, false, pub)
		gotRegions := slices.Clone(reused.m.Trace())

		fresh, freshPub := testExecutor(t, "kron-9")
		fresh.m.SetTracing(true)
		want := fresh.run(nil, q, 0, false, freshPub)
		if got.Status != StatusOK || got.Value != want.Value {
			t.Fatalf("%+v: reused executor answered %v (%s), fresh %v", q, got.Value, got.Status, want.Value)
		}
		if !slices.Equal(gotRegions, fresh.m.Trace()) {
			t.Fatalf("%+v: reused executor charged different regions than a fresh one", q)
		}
		if math.Float64bits(got.ModeledSec) != math.Float64bits(want.ModeledSec) {
			t.Fatalf("%+v: reused executor reports %v s, fresh %v s", q, got.ModeledSec, want.ModeledSec)
		}
		if q.Op == OpKHop {
			if oracle := khopOracle(pub.epoch.Out(), q.Source, q.K); got.Value != oracle {
				t.Fatalf("%+v: k-hop count %v, map-based oracle %v", q, got.Value, oracle)
			}
		}
	}
}

// The visited stamps survive the epoch counter wrapping: stale stamps
// equal to a re-issued epoch must not read as visited.
func TestKHopSeenWrapAround(t *testing.T) {
	e, pub := testExecutor(t, "kron-9")
	out := pub.epoch.Out()
	noDeadline := func() error { return nil }
	if _, err := e.khop(out, 0, 1, noDeadline); err != nil { // size seen
		t.Fatal(err)
	}
	e.hops.epoch = math.MaxUint32 - 1
	for v := range e.hops.seen {
		e.hops.seen[v] = uint32(v%4) + 1 // the epochs a wrapped counter hands out next
	}
	for i := 0; i < 5; i++ {
		src := graph.VID(i * 11)
		got, err := e.khop(out, src, 2, noDeadline)
		if err != nil {
			t.Fatal(err)
		}
		if want := khopOracle(out, src, 2); got != want {
			t.Fatalf("query %d across the epoch wrap: count %v, oracle %v", i, got, want)
		}
	}
	if e.hops.epoch == 0 || e.hops.epoch > 8 {
		t.Fatalf("epoch did not restart after the wrap: %d", e.hops.epoch)
	}
}

// A warm k-hop query allocates nothing sized by the graph: no visited
// map, no per-level frontier. At kron-12 a two-hop neighbourhood is
// most of the graph, which the map used to hold at tens of bytes per
// vertex.
func TestKHopAllocationBound(t *testing.T) {
	e, pub := testExecutor(t, "kron-12")
	out := pub.epoch.Out()
	noDeadline := func() error { return nil }
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	i := 0
	run := func() {
		if _, err := e.khop(out, graph.VID(i*97%out.NumVertices), 2, noDeadline); err != nil {
			t.Fatal(err)
		}
		i++
	}
	const runs = 64
	for j := 0; j < runs; j++ { // warm: let the frontier buffers reach their size
		run()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	i = 0
	for j := 0; j < runs; j++ {
		run()
	}
	runtime.ReadMemStats(&ms)
	if per := (ms.TotalAlloc - before) / runs; per >= 64<<10 {
		t.Fatalf("warm k-hop allocates %d B per query; bound %d", per, 64<<10)
	} else {
		t.Logf("warm k-hop allocates %d B per query", per)
	}
}

// A warm Submit allocates the query's reply and nothing its kernel
// works in: the pending record and its reply channel. The executor's
// result buffers and k-hop scratch are kept from query to query, the
// machine's region bookkeeping and the engine's step bodies are bound
// once, and the regions' hand-off to the pool is the pool's reusable
// record, also at two real workers.
func TestWarmSubmitAllocatesOnlyTheReply(t *testing.T) {
	const bound = 512
	el, err := harness.ResolveDataset("kron-12", harness.DatasetOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewFromEdgeList(el, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	for _, e := range s.execs {
		e.m.SetWorkers(2)
	}
	ctx, n := context.Background(), s.NumVertices()
	for _, op := range []Op{OpBFS, OpSSSP, OpPR, OpWCC, OpKHop} {
		// Every batch repeats the same queries: a root the executors have
		// not searched yet may still grow their buckets once.
		const queries = 32
		i := 0
		per := alloctest.BytesPerRun(queries, func() {
			j := i % queries
			q := Query{Op: op, Source: graph.VID(j * 97 % n), Target: graph.VID(j * 31 % n), K: 2}
			if r := s.Submit(ctx, q); r.Status != StatusOK {
				t.Fatalf("%s: status %q err %q", op, r.Status, r.Err)
			}
			i++
		})
		t.Logf("warm Submit %s: %d B/query", op, per)
		if per > bound {
			t.Errorf("a warm Submit of %s allocates %d B per query; bound %d (the pending record and its reply channel)", op, per, bound)
		}
	}
}
