// Package alloctest measures what a warm call allocates: the one
// reading behind every allocation wall (`make alloc-walls`).
package alloctest

import (
	"math"
	"runtime"
)

// BytesPerRun is testing.AllocsPerRun counting bytes instead of
// mallocs: the mean heap bytes one call of f allocates once warm, at
// GOMAXPROCS(1) so no other goroutine's allocation is billed. It warms
// with one batch and reports the smallest of three more — an arena that
// regrows because a worker drew a larger share than ever before is a
// one-off, a per-call term shows in every batch.
func BytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	best := uint64(math.MaxUint64)
	var ms runtime.MemStats
	for batch := 0; batch < 4; batch++ {
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
