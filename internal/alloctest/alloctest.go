// Package alloctest measures what a warm call allocates and what a value
// keeps alive: the readings behind every allocation wall (`make
// alloc-walls`).
package alloctest

import (
	"math"
	"runtime"
)

// BytesPerRun is testing.AllocsPerRun counting bytes instead of
// mallocs: the mean heap bytes one call of f allocates once warm, at
// GOMAXPROCS(1) so no other goroutine's allocation is billed while f
// runs. It warms with one batch and reports the smallest of three more —
// a parallel.Slab that regrows because a region or a chunk output more
// than ever before is a one-off, a per-call term shows in every batch.
func BytesPerRun(runs int, f func()) uint64 {
	return leastOf(3, runs, f)
}

// FewestBytes is the fewest heap bytes any one of calls warm calls of f
// allocated, at GOMAXPROCS(1). When f's own allocation is the same on
// every call, that is exactly it: another goroutine's allocation can
// only add to the calls it lands in, and it would have to land in all
// of them to show.
func FewestBytes(calls int, f func()) uint64 {
	return leastOf(calls, 1, f)
}

// leastOf warms with one batch of runs calls of f, then returns the
// least mean bytes per call over batches more.
func leastOf(batches, runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	best := uint64(math.MaxUint64)
	var ms runtime.MemStats
	for batch := 0; batch <= batches; batch++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&ms)
		if batch > 0 {
			best = min(best, (ms.TotalAlloc-before)/uint64(runs))
		}
	}
	return best
}

// Retained is the heap a value keeps alive: the live heap after
// runtime.GC while the value is held, less the live heap after release
// drops the last reference to it and runtime.GC runs again, at
// GOMAXPROCS(1) as the allocation readings are.
func Retained(release func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var held, freed runtime.MemStats
	runtime.GC()
	runtime.GC() // a sync.Pool's objects outlive one GC as its victims
	runtime.ReadMemStats(&held)
	release()
	runtime.GC()
	runtime.ReadMemStats(&freed)
	if freed.HeapAlloc > held.HeapAlloc {
		return 0
	}
	return held.HeapAlloc - freed.HeapAlloc
}
