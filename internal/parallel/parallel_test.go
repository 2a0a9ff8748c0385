package parallel

import (
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunExecutesAllWorkers(t *testing.T) {
	p := NewPool(8)
	for _, workers := range []int{1, 2, 3, 8, 17} {
		seen := make([]int32, workers)
		p.Run(workers, func(w int) {
			atomic.AddInt32(&seen[w], 1)
		})
		for w, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: worker %d ran %d times", workers, w, c)
			}
		}
	}
}

func TestRunReusesWorkers(t *testing.T) {
	p := NewPool(4)
	// Warm the pool, then issue many regions; the idle set should
	// absorb the workers between regions (observable only as "does not
	// explode"; correctness is what we assert).
	for i := 0; i < 200; i++ {
		var n atomic.Int64
		p.Run(4, func(w int) { n.Add(1) })
		if n.Load() != 4 {
			t.Fatalf("region %d ran %d workers", i, n.Load())
		}
	}
}

func TestForCoversAllIndices(t *testing.T) {
	p := NewPool(8)
	for _, sched := range []Sched{Static, Dynamic, Steal, NUMA} {
		for _, workers := range []int{1, 3, 8} {
			seen := make([]int32, 1000)
			For(p, workers, 1000, 16, sched, func(lo, hi, chunk, worker int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("sched=%v workers=%d: index %d ran %d times", sched, workers, i, c)
				}
			}
		}
	}
}

func TestForChunkIndicesStable(t *testing.T) {
	p := NewPool(8)
	// Chunk c must always cover [c*grain, min(n,(c+1)*grain)) whatever
	// the schedule or worker count.
	n, grain := 997, 13
	for _, workers := range []int{1, 2, 7} {
		for _, sched := range []Sched{Static, Dynamic, Steal, NUMA} {
			For(p, workers, n, grain, sched, func(lo, hi, chunk, worker int) {
				if lo != chunk*grain {
					t.Errorf("chunk %d starts at %d, want %d", chunk, lo, chunk*grain)
				}
				want := lo + grain
				if want > n {
					want = n
				}
				if hi != want {
					t.Errorf("chunk %d ends at %d, want %d", chunk, hi, want)
				}
			})
		}
	}
}

func TestForZeroAndTiny(t *testing.T) {
	p := NewPool(2)
	ran := false
	For(p, 4, 0, 16, Dynamic, func(lo, hi, chunk, worker int) { ran = true })
	if ran {
		t.Error("body ran for n=0")
	}
	count := 0
	For(p, 8, 1, 1024, Static, func(lo, hi, chunk, worker int) { count++ })
	if count != 1 {
		t.Errorf("n=1 ran %d chunks", count)
	}
}

func TestCounterSums(t *testing.T) {
	p := NewPool(8)
	c := NewCounter(4)
	For(p, 4, 1000, 8, Dynamic, func(lo, hi, chunk, worker int) {
		c.Add(worker, int64(hi-lo))
	})
	if got := c.Sum(); got != 1000 {
		t.Errorf("counter sum = %d, want 1000", got)
	}
}

func TestWriteMinInt64(t *testing.T) {
	const empty = int64(-1)
	p := NewPool(8)
	slot := empty
	firsts := NewCounter(8)
	For(p, 8, 1000, 1, Dynamic, func(lo, hi, chunk, worker int) {
		if WriteMinInt64(&slot, int64(lo+5), empty) {
			firsts.Add(worker, 1)
		}
	})
	if slot != 5 {
		t.Errorf("min = %d, want 5", slot)
	}
	if got := firsts.Sum(); got != 1 {
		t.Errorf("%d callers observed first-write, want exactly 1", got)
	}
}

func TestWriteMinFloat64Bits(t *testing.T) {
	p := NewPool(8)
	bits := math.Float64bits(math.Inf(1))
	For(p, 8, 512, 1, Dynamic, func(lo, hi, chunk, worker int) {
		WriteMinFloat64Bits(&bits, float64(lo)+0.5)
	})
	if got := math.Float64frombits(bits); got != 0.5 {
		t.Errorf("min = %v, want 0.5", got)
	}
}

func TestQueueCollectsAll(t *testing.T) {
	p := NewPool(8)
	q := NewQueue[int32](10000)
	For(p, 8, 10000, 64, Dynamic, func(lo, hi, chunk, worker int) {
		local := make([]int32, 0, hi-lo)
		for i := lo; i < hi; i++ {
			local = append(local, int32(i))
		}
		q.PushBatch(local)
	})
	if q.Len() != 10000 {
		t.Fatalf("queue holds %d items, want 10000", q.Len())
	}
	s := q.Slice()
	slices.Sort(s)
	for i, v := range s {
		if v != int32(i) {
			t.Fatalf("sorted[%d] = %d", i, v)
		}
	}
	q.Reset()
	if q.Len() != 0 {
		t.Error("reset did not empty the queue")
	}
	q.Push(7)
	if q.Len() != 1 || q.Slice()[0] != 7 {
		t.Error("push after reset failed")
	}
}

func TestOversubscribedRunsDoNotLeakGoroutines(t *testing.T) {
	// Workers beyond the idle capacity must exit after their task, not
	// block forever on an unreferenced channel.
	p := NewPool(4)
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		var n atomic.Int64
		p.Run(16, func(w int) { n.Add(1) })
		if n.Load() != 16 {
			t.Fatalf("region %d ran %d workers", i, n.Load())
		}
	}
	// Let exiting workers unwind.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+8 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d: pool leaks non-parked workers",
		before, runtime.NumGoroutine())
}

func TestDefaultPoolShared(t *testing.T) {
	if Default() != Default() {
		t.Error("Default returned distinct pools")
	}
	var n atomic.Int64
	Default().Run(3, func(w int) { n.Add(1) })
	if n.Load() != 3 {
		t.Errorf("default pool ran %d workers", n.Load())
	}
}

func BenchmarkForOverhead(b *testing.B) {
	p := NewPool(8)
	sink := make([]float64, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		For(p, 4, 1024, 64, Dynamic, func(lo, hi, chunk, worker int) {
			for j := lo; j < hi; j++ {
				sink[j] += 1
			}
		})
	}
}
