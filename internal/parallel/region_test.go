package parallel

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

var allScheds = []Sched{Static, Dynamic, Steal, NUMA}

// The region bodies of the allocation wall: package-level funcs, so the
// wall measures the pool and nothing a caller's closure costs.
var regionSink atomic.Int64

func workerBody(worker int)               { regionSink.Add(int64(worker)) }
func chunkBody(lo, hi, chunk, worker int) { regionSink.Add(int64(hi - lo)) }

// Once warm, a region allocates nothing at any worker count: its record
// (body, counter, deques, wait group, panic cell, ToSlice's counts)
// comes off the pool's free list and every worker parks between
// regions.
func TestWarmRegionsAllocateNothing(t *testing.T) {
	bm := NewBitmap(1 << 20)
	for i := 0; i < bm.Len(); i += 7 {
		bm.Set(i)
	}
	dst := make([]uint32, 0, bm.Count())
	for _, workers := range []int{2, 4} {
		p := NewPool(8)
		regions := map[string]func(){
			"Run":     func() { p.Run(workers, workerBody) },
			"ToSlice": func() { dst = bm.ToSlice(p, workers, dst[:0]) },
		}
		for _, sched := range allScheds {
			regions[fmt.Sprintf("For/%v", sched)] = func() { For(p, workers, 1<<12, 16, sched, chunkBody) }
		}
		for name, region := range regions {
			region() // parks the workers and sizes the record
			if got := testing.AllocsPerRun(50, region); got != 0 {
				t.Errorf("workers=%d: a warm %s allocates %v times", workers, name, got)
			}
		}
	}
}

// forCounts runs one For region under sched and returns how often each
// chunk ran.
func forCounts(p *Pool, workers, nchunks int, sched Sched) []int32 {
	ran := make([]int32, nchunks)
	For(p, workers, nchunks*8, 8, sched, func(lo, hi, chunk, worker int) {
		atomic.AddInt32(&ran[chunk], 1)
	})
	return ran
}

func checkOnce(t *testing.T, ctx string, ran []int32) {
	t.Helper()
	for c, k := range ran {
		if k != 1 {
			t.Fatalf("%s: chunk %d ran %d times, want once", ctx, c, k)
		}
	}
}

// A body that panics on a pooled worker re-raises its own value on the
// caller, and the record that region used — returned to the free list
// like any other — serves the next region cleanly: every chunk once,
// nothing re-raised.
func TestPanicOnPooledWorkerLeavesTheRecordReusable(t *testing.T) {
	type boom struct{ worker int }
	raise := map[string]func(p *Pool){
		"Run": func(p *Pool) {
			p.Run(4, func(worker int) {
				if worker == 2 {
					panic(boom{worker})
				}
			})
		},
		// Static runs chunk c on worker c % workers: chunk 5 is worker 1's.
		"For": func(p *Pool) {
			For(p, 4, 64, 1, Static, func(lo, hi, chunk, worker int) {
				if chunk == 5 {
					panic(boom{worker})
				}
			})
		},
	}
	for name, f := range raise {
		p := NewPool(8)
		got := func() (v any) {
			defer func() { v = recover() }()
			f(p)
			return nil
		}()
		if b, ok := got.(boom); !ok || b.worker == 0 {
			t.Fatalf("%s: re-raised %v, want the body's value from a pooled worker", name, got)
		}
		if len(p.free) != 1 {
			t.Fatalf("%s: %d free records after the panicking region, want its one", name, len(p.free))
		}
		for _, sched := range allScheds {
			checkOnce(t, fmt.Sprintf("%s then %v", name, sched), forCounts(p, 4, 257, sched))
		}
		if len(p.free) != 1 {
			t.Fatalf("%s: %d free records after the regions that followed, want the one reused", name, len(p.free))
		}
	}
}

// Concurrent callers on one pool, as epgd's executors share Default:
// each region takes a record of its own, so every chunk of every region
// runs exactly once. Run it under -race (make race).
func TestConcurrentCallersShareThePool(t *testing.T) {
	const callers, regions = 2, 1000
	var wg sync.WaitGroup
	errs := make(chan string, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < regions; i++ {
				sched, nchunks := allScheds[i%len(allScheds)], 1+(i*7+g)%97
				ran := forCounts(Default(), 2+i%3, nchunks, sched)
				for c, k := range ran {
					if k != 1 {
						errs <- fmt.Sprintf("caller %d region %d (%v, %d chunks): chunk %d ran %d times", g, i, sched, nchunks, c, k)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
