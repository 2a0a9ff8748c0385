package parallel

import (
	"math/bits"
	"slices"
	"sync/atomic"
)

// Bitmap is a dense frontier: one bit per vertex, set with an atomic
// OR (idempotent and commutative, so concurrent discovery of the same
// vertex is schedule-independent by construction) and tested with an
// atomic load. It is the bottom-up frontier representation of the real
// GAP suite's direction-optimizing BFS and the active-set
// representation of PowerGraph's supersteps: membership costs one bit
// instead of one queue slot, and converting to a vertex slice
// (ToSlice) yields ascending order — canonical without sorting.
//
// Set and Test may race freely. Everything else (Clear, Count,
// ToSlice) observes or replaces the whole bitmap and must only be
// called between regions. ClearRange may run inside a region provided
// concurrent callers own disjoint 64-aligned ranges (chunk grains that
// are multiples of 64 guarantee this).
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap returns an empty bitmap over [0, n).
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the domain size n.
func (b *Bitmap) Len() int { return b.n }

// Set marks i. Safe for concurrent use.
func (b *Bitmap) Set(i int) {
	atomic.OrUint64(&b.words[i>>6], 1<<(uint(i)&63))
}

// Test reports whether i is marked. Safe for concurrent use.
func (b *Bitmap) Test(i int) bool {
	return atomic.LoadUint64(&b.words[i>>6])&(1<<(uint(i)&63)) != 0
}

// Clear unmarks everything. Call only between regions.
func (b *Bitmap) Clear() {
	clear(b.words)
}

// ClearRange unmarks [lo, hi). Interior words are cleared with plain
// stores; boundary words that the range only partially covers are
// masked atomically, so concurrent ClearRange/Set calls on disjoint
// index ranges are race-free even when they share a boundary word.
func (b *Bitmap) ClearRange(lo, hi int) {
	if lo >= hi {
		return
	}
	loWord, hiWord := lo>>6, (hi-1)>>6
	loBit, hiBit := uint(lo)&63, uint(hi-1)&63
	if loWord == hiWord {
		mask := (^uint64(0) << loBit) & (^uint64(0) >> (63 - hiBit))
		atomic.AndUint64(&b.words[loWord], ^mask)
		return
	}
	first := loWord
	if loBit != 0 {
		atomic.AndUint64(&b.words[loWord], ^(^uint64(0) << loBit))
		first++
	}
	last := hiWord
	if hiBit != 63 {
		atomic.AndUint64(&b.words[hiWord], ^(^uint64(0) >> (63 - hiBit)))
		last--
	}
	for w := first; w <= last; w++ {
		b.words[w] = 0
	}
}

// Count returns the number of marked indices. Call only between
// regions.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// bitmapWordGrain is the per-chunk word count of the parallel ToSlice:
// 256 words = 16k bits per chunk keeps the two passes worth their
// scheduling overhead while leaving enough chunks to balance.
const bitmapWordGrain = 256

// ToSlice appends every marked index, in ascending order, to dst and
// returns the extended slice, running both passes (per-chunk popcount,
// then scatter at ScanInt64-derived cursors) on the pool. The output
// is a pure function of the bitmap contents — this is the sort-free
// queue<->bitmap conversion of a direction switch. The per-chunk counts
// and both passes' bodies live in the pool's region record, so a warm
// call into a dst with room allocates nothing. Call only between
// regions.
func (b *Bitmap) ToSlice(p *Pool, workers int, dst []uint32) []uint32 {
	nw := len(b.words)
	nchunks := NumChunks(nw, bitmapWordGrain)
	if workers > nchunks {
		workers = nchunks
	}
	if workers <= 1 || p == nil {
		return b.appendSerial(dst)
	}
	r := p.acquire()
	defer p.release(r)
	r.bits = b
	if cap(r.counts) < nchunks {
		r.counts = make([]int64, nchunks)
	}
	r.counts = r.counts[:nchunks]
	r.forChunks(p, workers, nw, bitmapWordGrain, Static, Topology{}, r.countFn)
	total := ScanInt64(nil, 1, r.counts) // nchunks is small: serial scan
	base := len(dst)
	dst = slices.Grow(dst, int(total))[:base+int(total)]
	r.out = dst[base:]
	r.forChunks(p, workers, nw, bitmapWordGrain, Static, Topology{}, r.placeFn)
	return dst
}

func (b *Bitmap) appendSerial(dst []uint32) []uint32 {
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			dst = append(dst, uint32(wi<<6+bit))
			w &= w - 1
		}
	}
	return dst
}
