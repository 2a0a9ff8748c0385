package simmachine

import (
	"fmt"
	"slices"
	"testing"
)

// The walls of the machine-owned region scratch: a warm region
// allocates nothing of its own, a region abandoned by a panicking body
// leaves nothing the next one reads, regions do not nest, and nothing
// recorded in the trace points back into the scratch.

var allScheds = []Sched{Static, Dynamic, Steal, NUMA}

// scratchMachine is a 16-thread machine with `workers` real workers,
// plain or with every model that reads region scratch switched on: two
// sockets with first-touch placement (execLane, page owners) and a
// two-node cluster (cnt, pairs).
func scratchMachine(workers int, models bool) *Machine {
	m := New(testModel(), 16)
	m.SetWorkers(workers)
	if models {
		m.SetSockets(2)
		m.SetPlacement(true)
		m.SetCluster(2, nil)
	}
	return m
}

// skewed charges chunks unevenly, so the steal simulation steals.
func skewed(lo, hi, chunk, worker int, w *W) {
	w.Cycles(float64(100 + 5000*(chunk%7)))
	w.Bytes(float64(64 * (hi - lo)))
	w.Atomics(float64(chunk % 3))
}

// threadFunc is a ForEachThread body written as a func of the thread.
type threadFunc func(tid int, w *W)

func (f threadFunc) Chunk(_, _, tid, _ int, w *W) { f(tid, w) }

var perThread threadFunc = func(tid int, w *W) { w.Cycles(float64(1000 * (tid + 1))) }

// items charges a ParallelFor chunk by its items alone.
func items(lo, hi int, w *W) { w.Cycles(float64(10 * (hi - lo))) }

func serialBody(w *W) { w.Cycles(1e4) }

// A warm region of any kind allocates nothing at all, at any worker
// count: its cost slots, lanes, loads, steal queues and network
// counters are the machine's, its W is the worker's slot, its body
// reaches the workers through the machine's scratch and the chunk
// adapter New bound, and the hand-off — counter, deques, wait group —
// is the pool's reusable region record.
func TestWarmRegionAllocatesNothing(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for _, models := range []bool{false, true} {
			for _, sched := range allScheds {
				m := scratchMachine(workers, models)
				m.SetTracing(false) // a trace grows by design
				for name, region := range map[string]func(){
					"ParallelForChunks": func() { m.ParallelForChunks(1<<15, 8, sched, skewed) },
					"ParallelFor":       func() { m.ParallelFor(1<<15, 8, sched, items) },
					"ChargeUniform":     func() { m.ChargeUniform(1<<15, 8, sched, Cost{Cycles: 3, Bytes: 8}) },
					"ForEachThread":     func() { m.ForEachThread(perThread) },
					"Serial":            func() { m.Serial(serialBody) },
				} {
					region() // sizes the scratch
					if got := testing.AllocsPerRun(10, region); got != 0 {
						t.Errorf("workers=%d models=%v sched=%v: a warm %s allocates %v times", workers, models, sched, name, got)
					}
				}
			}
		}
	}
}

// Nor does anything scale with the chunk count: none at 8 chunks and
// none at 4096, where anything per chunk would show as thousands.
func TestWarmRegionAllocationsIndependentOfChunkCount(t *testing.T) {
	const handful = 0
	for _, models := range []bool{false, true} {
		for _, sched := range allScheds {
			m := scratchMachine(2, models)
			m.SetTracing(false)
			allocs := func(chunks int) float64 {
				region := func() { m.ParallelForChunks(8*chunks, 8, sched, skewed) }
				region()
				return testing.AllocsPerRun(50, region)
			}
			large, small := allocs(4096), allocs(8)
			t.Logf("models=%v sched=%v: %v allocs/region at 8 chunks, %v at 4096", models, sched, small, large)
			if small > handful || large > handful {
				t.Errorf("models=%v sched=%v: %v allocations per region at 8 chunks, %v at 4096: want at most %d at both",
					models, sched, small, large, handful)
			}
		}
	}
}

// mustPanic runs f and returns what it panicked with.
func mustPanic(t *testing.T, what string, f func()) (val any) {
	t.Helper()
	defer func() {
		if val = recover(); val == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
	return nil
}

// A body that panics abandons its region mid-flight (parallel.Pool.Run
// re-raises it and epgd recovers it per query). The next region on the
// same machine must record exactly the Region a fresh machine records:
// scratch is zeroed on entry, so nothing the dead region left is read.
func TestAbandonedRegionDoesNotPoisonTheNext(t *testing.T) {
	dying := func(lo, hi, chunk, worker int, w *W) {
		skewed(lo, hi, chunk, worker, w)
		if chunk == 37 {
			panic("boom")
		}
	}
	ordinary := func(m *Machine, sched Sched) {
		m.ParallelForChunks(4096, 16, sched, skewed)
		m.ForEachThread(perThread)
		m.ChargeUniform(4096, 16, sched, Cost{Cycles: 2, Bytes: 8})
		m.Serial(serialBody)
	}
	for _, workers := range []int{1, 2, 4} {
		for _, models := range []bool{false, true} {
			for _, sched := range allScheds {
				ctx := fmt.Sprintf("workers=%d models=%v sched=%v", workers, models, sched)
				m := scratchMachine(workers, models)
				if got := mustPanic(t, ctx, func() { m.ParallelForChunks(8192, 8, sched, dying) }); got != "boom" {
					t.Fatalf("%s: panicked with %v, want the body's value", ctx, got)
				}
				mustPanic(t, ctx, func() { m.ForEachThread(threadFunc(func(tid int, w *W) { w.Cycles(9e9); panic("boom") })) })
				mustPanic(t, ctx, func() { m.Serial(func(w *W) { w.Bytes(9e9); panic("boom") }) })
				if len(m.Trace()) != 0 {
					t.Fatalf("%s: an abandoned region was recorded: %+v", ctx, m.Trace())
				}
				ordinary(m, sched)
				fresh := scratchMachine(workers, models)
				ordinary(fresh, sched)
				if !slices.Equal(m.Trace(), fresh.Trace()) {
					t.Errorf("%s: regions after an abandoned one differ from a fresh machine's:\n got %+v\nwant %+v", ctx, m.Trace(), fresh.Trace())
				}
			}
		}
	}
}

// Regions do not nest: the inner one would overwrite the outer one's
// cost slots. Opening one from inside a body panics with a message that
// says so — on the caller's goroutine, whichever worker ran the body —
// and the machine is usable afterwards.
func TestRegionInsideRegionPanics(t *testing.T) {
	const want = "simmachine: region opened inside a region"
	for _, workers := range []int{1, 2} {
		m := scratchMachine(workers, false)
		inner := map[string]func(){
			"ParallelFor":   func() { m.ParallelFor(64, 8, Dynamic, func(lo, hi int, w *W) {}) },
			"ForEachThread": func() { m.ForEachThread(perThread) },
			"ChargeUniform": func() { m.ChargeUniform(64, 8, Dynamic, Cost{Cycles: 1}) },
			"Serial":        func() { m.Serial(serialBody) },
			"ChargeSerial":  func() { m.ChargeSerial(Cost{Cycles: 1}) },
		}
		for name, open := range inner {
			for outer, run := range map[string]func(){
				"ParallelForChunks": func() {
					m.ParallelForChunks(64, 8, Static, func(lo, hi, chunk, worker int, w *W) { open() })
				},
				"ForEachThread": func() { m.ForEachThread(threadFunc(func(int, *W) { open() })) },
				"Serial":        func() { m.Serial(func(*W) { open() }) },
			} {
				what := fmt.Sprintf("workers=%d: %s inside %s", workers, name, outer)
				if got := mustPanic(t, what, run); got != want {
					t.Errorf("%s panicked with %v, want %q", what, got, want)
				}
			}
		}
		m.ParallelForChunks(256, 8, Steal, skewed) // the guard was reset on the way out
		if len(m.Trace()) != 1 {
			t.Errorf("workers=%d: %d regions recorded after the nested attempts, want the one that ran", workers, len(m.Trace()))
		}
	}
}

// Trace entries are values: running further regions — which rewrites
// every piece of scratch — changes no Region recorded earlier.
func TestTraceNeverAliasesScratch(t *testing.T) {
	for _, models := range []bool{false, true} {
		for _, sched := range allScheds {
			m := scratchMachine(2, models)
			m.ParallelForChunks(4096, 16, sched, skewed)
			m.ForEachThread(perThread)
			early := slices.Clone(m.Trace())
			m.ParallelForChunks(1<<15, 8, sched, func(lo, hi, chunk, worker int, w *W) { w.Cycles(7e6); w.Bytes(3e6) })
			m.ChargeUniform(1<<15, 8, sched, Cost{Cycles: 1e3, Bytes: 1e3, Atomics: 5})
			m.ForEachThread(threadFunc(func(tid int, w *W) { w.Atomics(1e4) }))
			if !slices.Equal(m.Trace()[:len(early)], early) {
				t.Errorf("models=%v sched=%v: later regions changed recorded ones:\n got %+v\nwant %+v", models, sched, m.Trace()[:len(early)], early)
			}
		}
	}
}
