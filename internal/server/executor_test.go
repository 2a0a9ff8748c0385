package server

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"github.com/hpcl-repro/epg/internal/alloctest"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/harness"
	"github.com/hpcl-repro/epg/internal/simmachine"
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
	for _, q := range mixedQueries(pub.g.Out.NumVertices, 60) {
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
	for _, q := range mixedQueries(pub.g.Out.NumVertices, 45) {
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
			if oracle := khopOracle(pub.g.Out, q.Source, q.K); got.Value != oracle {
				t.Fatalf("%+v: k-hop count %v, map-based oracle %v", q, got.Value, oracle)
			}
		}
	}
}

// rebindBatch deletes an out-entry of eight vertices and inserts an edge
// from each of them, drawn from step, so every generation rewrites rows.
func rebindBatch(c *graph.CSR, step int) graph.Batch {
	n := c.NumVertices
	var b graph.Batch
	for i := 0; i < 8; i++ {
		u, v := graph.VID((step*97+i*37+1)%n), graph.VID((step*53+i*71+3)%n)
		if row := c.Neighbors(u); len(row) > 0 {
			b = append(b, graph.Mutation{Op: graph.MutDelete, Src: u, Dst: row[0]})
		}
		if v != u {
			b = append(b, graph.Mutation{Op: graph.MutInsert, Src: u, Dst: v, W: 0.5})
		}
	}
	return b
}

// An executor moving to a new generation binds its graph and builds
// before the query starts the clock, so the build is no query's charge.
// On every generation of a maintainer advanced by three mutates, raw and
// compressed, the first BFS, SSSP and k-hop query an executor serves
// after binding answers, charges the same regions and reports the same
// modeled time, bit for bit, as the same query served again without a
// rebind, and on generation 1 as the Bench executor, which never
// rebinds.
func TestExecutorRebindMatchesServedAgain(t *testing.T) {
	el := testEdgeList(t)
	qs := []Query{{Op: OpBFS, Source: 3, Target: 40}, {Op: OpSSSP, Source: 7, Target: 90}, {Op: OpKHop, Source: 5, K: 2}}
	for _, compress := range []bool{false, true} {
		s, err := NewFromEdgeList(el, Config{Executors: 1, Compress: compress})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		b, err := NewBench(el, s.cfg.Threads, s.cfg.Landmarks, compress)
		if err != nil {
			t.Fatal(err)
		}
		b.exec.m.SetTracing(true)
		movers := make([]*executor, len(qs)) // one per query, so each query is its executor's first
		for i := range movers {
			movers[i] = newExecutor(s.pub.Load().g, s.cfg.Threads, compress)
			movers[i].m.SetTracing(true)
		}
		serve := func(e *executor, q Query, pub *published) (Response, []simmachine.Region) {
			r := e.run(nil, q, 0, false, pub)
			if r.Status != StatusOK {
				t.Fatalf("%+v: %s %s", q, r.Status, r.Err)
			}
			return r, slices.Clone(e.m.Trace())
		}
		for gen := uint32(1); ; gen++ {
			pub := s.pub.Load()
			if pub.gen != gen {
				t.Fatalf("published generation %d, want %d", pub.gen, gen)
			}
			for i, q := range qs {
				ctx := fmt.Sprintf("compress=%v gen %d %s", compress, gen, q.Op)
				first, firstRegions := serve(movers[i], q, pub)
				if movers[i].inst.Graph() != pub.g {
					t.Fatalf("%s: the executor is not bound to the published graph", ctx)
				}
				again, againRegions := serve(movers[i], q, pub)
				sameServing(t, ctx+": first query after the bind vs served again", first, firstRegions, again, againRegions)
				if gen == 1 {
					want, wantRegions := serve(b.exec, q, b.pub)
					sameServing(t, ctx+": vs the Bench executor", first, firstRegions, want, wantRegions)
				}
			}
			if gen == 4 {
				break
			}
			mustMutate(t, s, rebindBatch(pub.g.Out, int(gen)))
		}
	}
}

// sameServing fails unless got answers what want does, charging the
// same regions and reporting the same modeled time, bit for bit.
func sameServing(t *testing.T, ctx string, got Response, gotRegions []simmachine.Region, want Response, wantRegions []simmachine.Region) {
	t.Helper()
	if got.Value != want.Value || math.Float64bits(got.ModeledSec) != math.Float64bits(want.ModeledSec) || !slices.Equal(gotRegions, wantRegions) {
		t.Fatalf("%s: answered %v in %v s over %d regions, want %v in %v s over %d",
			ctx, got.Value, got.ModeledSec, len(gotRegions), want.Value, want.ModeledSec, len(wantRegions))
	}
}

// The visited stamps survive the epoch counter wrapping: stale stamps
// equal to a re-issued epoch must not read as visited.
func TestKHopSeenWrapAround(t *testing.T) {
	e, pub := testExecutor(t, "kron-9")
	out := pub.g.Out
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
	out := pub.g.Out
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
