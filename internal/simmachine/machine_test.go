package simmachine

import (
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func testModel() Model { return Haswell72() }

func TestEffHzMonotoneNonIncreasing(t *testing.T) {
	m := testModel()
	prev := math.Inf(1)
	for th := 1; th <= m.MaxThreads(); th++ {
		hz := m.effHz(th)
		if hz <= 0 {
			t.Fatalf("effHz(%d) = %v", th, hz)
		}
		if hz > prev+1e-9 {
			t.Fatalf("effHz increased at %d threads: %v > %v", th, hz, prev)
		}
		prev = hz
	}
}

func TestEffHzEndpoints(t *testing.T) {
	m := testModel()
	if got := m.effHz(1); got != m.TurboHz {
		t.Errorf("effHz(1) = %v, want turbo %v", got, m.TurboHz)
	}
	if got := m.effHz(36); math.Abs(got-m.BaseHz) > 1e-3 {
		t.Errorf("effHz(36) = %v, want base %v", got, m.BaseHz)
	}
	// At 72 threads each lane runs slower than base but aggregate
	// throughput (t * effHz) must exceed the 36-thread aggregate.
	agg36 := 36 * m.effHz(36)
	agg72 := 72 * m.effHz(72)
	if agg72 <= agg36 {
		t.Errorf("SMT yields no aggregate gain: %v vs %v", agg72, agg36)
	}
	if agg72 > agg36*(1+m.SMTYield)+1 {
		t.Errorf("SMT gain exceeds yield bound: %v vs %v", agg72, agg36*(1+m.SMTYield))
	}
}

func TestBandwidthSaturates(t *testing.T) {
	m := testModel()
	if bw := m.bandwidth(1); bw != m.ThreadBW {
		t.Errorf("bandwidth(1) = %v", bw)
	}
	oneSocket := m.bandwidth(18)
	if oneSocket != m.SocketBW {
		t.Errorf("bandwidth(18) = %v, want socket cap %v", oneSocket, m.SocketBW)
	}
	if bw := m.bandwidth(72); bw != 2*m.SocketBW {
		t.Errorf("bandwidth(72) = %v, want 2 sockets %v", bw, 2*m.SocketBW)
	}
}

func TestSerialChargesTime(t *testing.T) {
	m := New(testModel(), 8)
	m.Serial(func(w *W) { w.Cycles(3.6e9) }) // one turbo-second of work
	if got := m.Elapsed(); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("elapsed = %v, want 1.0", got)
	}
}

func TestSerialMemoryBound(t *testing.T) {
	m := New(testModel(), 1)
	m.Serial(func(w *W) { w.Bytes(11.5e9) }) // one thread-BW-second
	if got := m.Elapsed(); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("elapsed = %v, want 1.0", got)
	}
	if !m.Trace()[0].MemBound {
		t.Error("region not marked memory-bound")
	}
}

func TestParallelForExecutesAllIndices(t *testing.T) {
	m := New(testModel(), 4)
	var n int64
	seen := make([]int32, 1000)
	m.ParallelFor(1000, 16, Dynamic, func(lo, hi int, w *W) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
			atomic.AddInt64(&n, 1)
		}
		w.Cycles(float64(hi - lo))
	})
	if n != 1000 {
		t.Fatalf("executed %d iterations, want 1000", n)
	}
	for i, s := range seen {
		if s != 1 {
			t.Fatalf("index %d executed %d times", i, s)
		}
	}
}

func TestParallelForSpeedupUniformWork(t *testing.T) {
	// Uniform compute-bound chunks: modeled time should drop close
	// to linearly up to the physical core count.
	elapsedFor := func(threads int) float64 {
		m := New(testModel(), threads)
		m.ParallelFor(36*100, 1, Dynamic, func(lo, hi int, w *W) {
			w.Cycles(1e6)
		})
		return m.Elapsed()
	}
	t1 := elapsedFor(1)
	t8 := elapsedFor(8)
	speedup := t1 / t8
	if speedup < 6 || speedup > 8.01 {
		t.Errorf("8-thread speedup = %.2f, want near-linear in (6, 8]", speedup)
	}
	t72 := elapsedFor(72)
	if t72 >= t8 {
		t.Errorf("72 threads (%v) not faster than 8 (%v)", t72, t8)
	}
}

func TestStaticImbalanceSlowerThanDynamic(t *testing.T) {
	// One heavy chunk among many light ones: dynamic scheduling
	// absorbs it; static round-robin forces one lane to carry the
	// heavy chunk plus its share of light ones.
	run := func(s Sched) float64 {
		m := New(testModel(), 4)
		m.ParallelFor(64, 1, s, func(lo, hi int, w *W) {
			if lo == 0 {
				w.Cycles(1e8)
			} else {
				w.Cycles(1e5)
			}
		})
		return m.Elapsed()
	}
	if ds, ss := run(Dynamic), run(Static); ss < ds {
		t.Errorf("static (%v) unexpectedly faster than dynamic (%v)", ss, ds)
	}
}

func TestDynamicBeatsStaticOnSkew(t *testing.T) {
	// Pathological alternating skew: static round-robin piles all
	// heavy chunks on even lanes.
	run := func(s Sched) float64 {
		m := New(testModel(), 2)
		m.ParallelFor(100, 1, s, func(lo, hi int, w *W) {
			if lo%2 == 0 {
				w.Cycles(1e7)
			} else {
				w.Cycles(1e3)
			}
		})
		return m.Elapsed()
	}
	ds, ss := run(Dynamic), run(Static)
	if ss <= ds*1.5 {
		t.Errorf("expected static (%v) ≫ dynamic (%v) on alternating skew", ss, ds)
	}
}

func TestMemoryRoofline(t *testing.T) {
	// A purely bandwidth-bound region should stop improving once
	// the socket bandwidth saturates.
	run := func(threads int) float64 {
		m := New(testModel(), threads)
		m.ParallelFor(threads, 1, Static, func(lo, hi int, w *W) {
			w.Bytes(1e9 / float64(threads))
		})
		return m.Elapsed()
	}
	t18 := run(18)
	t36 := run(36)
	// Two sockets double bandwidth but NUMA adds penalty: expect
	// 36t between 0.5x and 1.0x of 18t time.
	if t36 >= t18 {
		t.Errorf("36 threads (%v) slower than 18 (%v) for bandwidth-bound work", t36, t18)
	}
	if t36 < t18*0.5 {
		t.Errorf("36 threads (%v) better than 2x of 18 (%v): NUMA penalty missing", t36, t18)
	}
}

func TestAtomicContentionGrowsWithThreads(t *testing.T) {
	// Same total atomics, spread across more lanes: per-op cost
	// rises with contention, so total CPU-seconds rise.
	regionSeconds := func(threads int) float64 {
		m := New(testModel(), threads)
		m.ParallelFor(threads, 1, Static, func(lo, hi int, w *W) {
			w.Atomics(1e6 / float64(threads))
		})
		return m.Elapsed() * float64(threads) // aggregate lane-seconds
	}
	if a1, a8 := regionSeconds(1), regionSeconds(8); a8 <= a1 {
		t.Errorf("aggregate atomic cost did not grow: 1t=%v 8t=%v", a1, a8)
	}
}

func TestBarrierCostAppears(t *testing.T) {
	m := New(testModel(), 16)
	for i := 0; i < 100; i++ {
		m.ParallelFor(16, 1, Static, func(lo, hi int, w *W) { w.Cycles(1) })
	}
	// 100 regions of negligible work should cost roughly 100
	// barrier+fork overheads.
	min := 100 * testModel().ForkSeconds
	if m.Elapsed() < min {
		t.Errorf("elapsed %v below pure overhead bound %v", m.Elapsed(), min)
	}
}

func TestForEachThreadLaneAssignment(t *testing.T) {
	m := New(testModel(), 6)
	var count int64
	m.ForEachThread(threadFunc(func(tid int, w *W) {
		if tid < 0 || tid >= 6 {
			t.Errorf("tid %d out of range", tid)
		}
		atomic.AddInt64(&count, 1)
		w.Cycles(100)
	}))
	if count != 6 {
		t.Errorf("ran %d bodies, want 6", count)
	}
	tr := m.Trace()
	if len(tr) != 1 || tr[0].ActiveLanes != 6 {
		t.Errorf("trace = %+v", tr)
	}
}

func TestFileRead(t *testing.T) {
	m := New(testModel(), 32)
	m.FileRead(480e6, false) // exactly one DiskBW-second
	if got := m.Elapsed(); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("file read elapsed = %v, want 1.0", got)
	}
	if !m.Trace()[0].IO {
		t.Error("region not marked IO")
	}
	m.Reset()
	m.FileRead(480e6, true)
	if m.Elapsed() <= 1.0 {
		t.Error("parsing added no time")
	}
}

func TestSleepAndReset(t *testing.T) {
	m := New(testModel(), 2)
	m.Sleep(10)
	if m.Elapsed() != 10 {
		t.Errorf("elapsed = %v", m.Elapsed())
	}
	if r := m.Trace()[0]; r.ActiveLanes != 0 {
		t.Errorf("sleep region %+v", r)
	}
	m.Reset()
	if m.Elapsed() != 0 || len(m.Trace()) != 0 {
		t.Error("reset incomplete")
	}
}

// TestResetBumpsGeneration: Reset discards the trace, so any cursor
// captured before it indexes a dead generation. The generation counter
// is what lets trace consumers (power.RAPL windows) detect that and
// fail loudly instead of slicing a truncated — or silently regrown —
// trace.
func TestResetBumpsGeneration(t *testing.T) {
	m := New(testModel(), 2)
	g0 := m.Generation()
	m.Serial(func(w *W) { w.Cycles(1e6) })
	if m.Generation() != g0 {
		t.Error("recording regions changed the generation")
	}
	m.Reset()
	if m.Generation() != g0+1 {
		t.Errorf("generation after Reset = %d, want %d", m.Generation(), g0+1)
	}
	m.Reset()
	if m.Generation() != g0+2 {
		t.Errorf("generation after second Reset = %d, want %d", m.Generation(), g0+2)
	}
	if !m.Tracing() {
		t.Error("new machine not tracing by default")
	}
}

func TestMarkWindows(t *testing.T) {
	m := New(testModel(), 2)
	m.Serial(func(w *W) { w.Cycles(1e6) })
	i0, t0 := m.Mark()
	m.Serial(func(w *W) { w.Cycles(1e6) })
	i1, t1 := m.Mark()
	if i1 != i0+1 {
		t.Errorf("window regions = %d", i1-i0)
	}
	if t1 <= t0 {
		t.Error("window duration not positive")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() float64 {
		m := New(testModel(), 5)
		m.ParallelFor(997, 7, Dynamic, func(lo, hi int, w *W) {
			w.Cycles(float64((hi - lo) * (lo + 13)))
			w.Bytes(float64(hi-lo) * 64)
			w.Atomics(float64(lo % 3))
		})
		return m.Elapsed()
	}
	a := run()
	for i := 0; i < 10; i++ {
		if b := run(); b != a {
			t.Fatalf("modeled time nondeterministic: %v vs %v", a, b)
		}
	}
}

// Property: modeled parallel time is bounded below by the greedy lower
// bounds max(chunkMax, total/threads) (up to overheads) and above by
// serial time + overheads, for arbitrary chunk costs.
func TestSchedulingBoundsProperty(t *testing.T) {
	model := testModel()
	f := func(seed uint64, threadsRaw uint8) bool {
		threads := int(threadsRaw)%16 + 1
		costs := make([]float64, 50)
		s := seed
		var total, maxc float64
		for i := range costs {
			s = s*6364136223846793005 + 1442695040888963407
			costs[i] = float64(s%1000+1) * 1e4
			total += costs[i]
			if costs[i] > maxc {
				maxc = costs[i]
			}
		}
		m := New(model, threads)
		m.ParallelFor(len(costs), 1, Dynamic, func(lo, hi int, w *W) {
			w.Cycles(costs[lo])
		})
		hz := model.effHz(threads)
		lower := math.Max(maxc/hz, total/(float64(threads)*hz))
		upper := total/model.effHz(1) + model.barrier(threads) + 1e-6
		got := m.Elapsed()
		return got >= lower-1e-12 && got <= upper+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: modeled time is monotone in work: doubling every chunk's
// cycles cannot reduce elapsed time.
func TestMonotoneInWorkProperty(t *testing.T) {
	f := func(seed uint64) bool {
		base := float64(seed%1000+1) * 1e3
		run := func(mult float64) float64 {
			m := New(testModel(), 4)
			m.ParallelFor(32, 1, Dynamic, func(lo, hi int, w *W) {
				w.Cycles(base * mult * float64(lo+1))
			})
			return m.Elapsed()
		}
		return run(2) >= run(1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkParallelForOverhead(b *testing.B) {
	m := New(testModel(), 8)
	m.SetTracing(false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.ParallelFor(1024, 64, Dynamic, func(lo, hi int, w *W) {
			w.Cycles(float64(hi - lo))
		})
	}
}
