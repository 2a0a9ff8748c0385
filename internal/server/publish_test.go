package server

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/hpcl-repro/epg/internal/graph"
)

func mustMutate(t *testing.T, s *Server, b graph.Batch) {
	t.Helper()
	if _, err := s.Mutate(context.Background(), b); err != nil {
		t.Fatal(err)
	}
}

// flipBatches is a run of count one-edge batches that insert the edge
// v0-lone of hazardBatches and delete it again, alternately.
func flipBatches(t *testing.T, count int) []graph.Batch {
	t.Helper()
	_, v0, lone := hazardBatches(t)
	var out []graph.Batch
	for i := 0; i < count; i++ {
		if i%2 == 0 {
			out = append(out, graph.Batch{{Op: graph.MutInsert, Src: v0, Dst: lone, W: 0.75}})
		} else {
			out = append(out, graph.Batch{{Op: graph.MutDelete, Src: v0, Dst: lone}})
		}
	}
	return out
}

// One Apply per mutate: the adjacency is rebuilt once, on the
// maintainer, however many executors serve it. Eight mutates and then a
// query on every executor allocate on four executors what they allocate
// on one, give or take the executors' own query scratch.
func TestOneApplyPerMutate(t *testing.T) {
	batches := flipBatches(t, 8)
	measure := func(executors int) uint64 {
		s := startServer(t, Config{Executors: executors})
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for _, b := range batches {
			mustMutate(t, s, b)
		}
		s.Close()
		pub := s.pub.Load()
		for i, e := range s.execs {
			if resp := e.run(context.Background(), Query{Op: OpKHop, Source: 0, K: 1}, 0, false, pub); resp.Status != StatusOK {
				t.Fatalf("executor %d: %s %s", i, resp.Status, resp.Err)
			}
		}
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - before
	}
	one, four := measure(1), measure(4)
	t.Logf("8 mutates + a query per executor: %d B on one executor, %d B on four", one, four)
	if four > one+one/4 {
		t.Fatalf("four executors allocate %d B for what one does in %d B: more than 1.25x", four, one)
	}
}

// csrDigest hashes epochs' rows, read through Flat, so an overlay's
// patched rows and the base rows it shares are both covered.
func csrDigest(cs ...*graph.CSR) uint64 {
	h := fnv.New64a()
	for _, c := range cs {
		if c == nil { // an undirected graph's In
			continue
		}
		c = c.Flat()
		binary.Write(h, binary.LittleEndian, []int64{int64(len(c.Offsets)), int64(len(c.Adj)), int64(len(c.Weights))})
		binary.Write(h, binary.LittleEndian, c.Offsets)
		binary.Write(h, binary.LittleEndian, c.Adj)
		binary.Write(h, binary.LittleEndian, c.Weights)
	}
	return h.Sum64()
}

// sketchDigest hashes a sketch's vectors, each materialized, so the
// bases later generations share and the deltas are both covered.
func sketchDigest(s *Sketch) uint64 {
	h := fnv.New64a()
	d := s.dense()
	binary.Write(h, binary.LittleEndian, d.landmarks)
	for _, x := range d.hops {
		binary.Write(h, binary.LittleEndian, x)
	}
	for _, x := range d.dist {
		binary.Write(h, binary.LittleEndian, x)
	}
	return h.Sum64()
}

// Published generations stay frozen: the rows and the sketch of a
// generation a reader still holds hash the same while and after the
// maintainer builds eight more (mutates and a refresh), queries flowing.
// The reader runs beside the maintenance, so under -race (make
// serve-soak) a write to a published row or sketch base is a reported
// race even where it would not move the sum. (Compressed bytes: gap's
// TestBoundInstanceRunsOnAFrozenEpoch.)
func TestPublishedEpochsStayFrozen(t *testing.T) {
	s := startServer(t, Config{Executors: 2, Compress: true})
	batches := flipBatches(t, 9)
	mustMutate(t, s, batches[0])
	old := s.pub.Load()
	digest := func() uint64 { return csrDigest(old.g.Out, old.g.In) ^ sketchDigest(old.sketch) }
	want := digest()

	var moved atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if digest() != want {
					moved.Store(true)
				}
			}
		}
	}()
	ctx := context.Background()
	for i := 1; i <= 8; i++ {
		mustMutate(t, s, batches[i])
		if resp := s.Submit(ctx, Query{Op: OpBFS, Source: 0, Target: 9}); resp.Status != StatusOK {
			t.Fatalf("query beside mutate %d: %s %s", i, resp.Status, resp.Err)
		}
	}
	mustMutate(t, s, nil) // a refresh
	close(stop)
	wg.Wait()
	if moved.Load() || digest() != want {
		t.Fatal("a published generation's rows or sketch changed after later mutates")
	}
	if gen := s.pub.Load().gen; gen != old.gen+9 {
		t.Fatalf("generation %d after nine more maintenances on %d", gen, old.gen)
	}
}
