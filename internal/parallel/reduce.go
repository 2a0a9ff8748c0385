package parallel

import (
	"math"
	"sync/atomic"
)

// cacheLine is the assumed false-sharing granularity for padded slots.
const cacheLine = 64

// Counter is a set of cache-line padded int64 cells, one per worker,
// for high-frequency counters (edges examined, relaxations) that would
// otherwise contend on a single atomic. Integer addition is
// commutative, so the sum is deterministic even though the per-worker
// split is not.
type Counter struct {
	cells []paddedInt64
}

type paddedInt64 struct {
	v int64
	_ [cacheLine - 8]byte
}

// NewCounter returns a counter with one cell per worker.
func NewCounter(workers int) *Counter {
	if workers < 1 {
		workers = 1
	}
	return &Counter{cells: make([]paddedInt64, workers)}
}

// Add accumulates delta into the worker's cell (no atomics: each
// worker owns its cell).
func (c *Counter) Add(worker int, delta int64) { c.cells[worker].v += delta }

// Reset zeroes every cell so one counter serves region after region.
// Call only between regions.
func (c *Counter) Reset() { clear(c.cells) }

// Sum returns the total across cells. Call only after the region has
// completed.
func (c *Counter) Sum() int64 {
	var s int64
	for i := range c.cells {
		s += c.cells[i].v
	}
	return s
}

// WriteMinInt64 atomically lowers *addr to v, treating the sentinel
// `empty` as larger than everything. It returns true when this call
// performed the first write (i.e. *addr was empty), which happens for
// exactly one caller per address. The final value is the minimum over
// all concurrently written values — a commutative reduction, so it is
// schedule-independent (the priority-write of Dhulipala, Blelloch &
// Shun; GraphMat's REDUCE uses the same min-parent rule).
func WriteMinInt64(addr *int64, v, empty int64) (first bool) {
	for {
		old := atomic.LoadInt64(addr)
		if old != empty && old <= v {
			return false
		}
		if atomic.CompareAndSwapInt64(addr, old, v) {
			return old == empty
		}
	}
}

// LowerMinInt64 atomically lowers *addr to v, treating the sentinel
// `empty` as larger than everything. Unlike WriteMinInt64 it returns
// true whenever THIS call strictly lowered the stored value (the first
// write included) — which can happen for several callers per address,
// but always happens for the caller holding the global minimum (no
// smaller value can beat it to the slot). That guarantee is what lets
// the ChunkQueue claim protocol push on every lowering and filter to
// the final minimum afterwards (see Claim).
func LowerMinInt64(addr *int64, v, empty int64) (lowered bool) {
	for {
		old := atomic.LoadInt64(addr)
		if old != empty && old <= v {
			return false
		}
		if atomic.CompareAndSwapInt64(addr, old, v) {
			return true
		}
	}
}

// WriteMinFloat64Bits atomically lowers the float64 stored as bits at
// addr to v. Returns true if the value was strictly lowered by this
// call. Only the final value (a min, hence schedule-independent) may
// be used for deterministic outputs; the win report is racy.
func WriteMinFloat64Bits(addr *uint64, v float64) bool {
	for {
		old := atomic.LoadUint64(addr)
		if math.Float64frombits(old) <= v {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, old, math.Float64bits(v)) {
			return true
		}
	}
}
