package parallel

import (
	"fmt"
	"sync/atomic"
)

// This file holds the frontier representations the engines choose
// between. Three are provided, in increasing order of structure:
//
//   - Queue: a single atomic bag. Membership is schedule-independent
//     whenever the pushed set is; order is racy. The representation of
//     choice for chaotic kernels that only need a bag (GraphBIG's
//     asynchronous relaxation).
//   - ChunkQueue: per-chunk local buffers concatenated in chunk order.
//     Membership AND order are schedule-independent whenever the
//     per-chunk item sequences are, so deterministic kernels get a
//     canonical frontier without sorting.
//   - Bitmap (bitmap.go): dense membership with atomic set/test and a
//     parallel ToSlice. The representation for bottom-up traversal and
//     dense active sets.

// Queue is an atomic frontier queue: a bounded bag that many workers
// push into concurrently with one fetch-and-add per batch, replacing
// the mutex-guarded append the engines used before. Membership is
// schedule-independent whenever the *set* of pushed items is (e.g.
// first-claim BFS discovery); the order of items is not — callers that
// need a canonical order use a ChunkQueue instead.
type Queue[T any] struct {
	buf []T
	n   atomic.Int64
}

// NewQueue returns a queue that can hold up to capacity items between
// resets. Pushing beyond capacity panics (frontiers are bounded by the
// vertex count, which callers know).
func NewQueue[T any](capacity int) *Queue[T] {
	return &Queue[T]{buf: make([]T, capacity)}
}

// Push appends one item. It panics if the queue is full.
func (q *Queue[T]) Push(v T) {
	i := q.n.Add(1) - 1
	if int(i) >= len(q.buf) {
		panic(fmt.Sprintf("parallel: Queue overflow: capacity %d, pushing 1 item at position %d", len(q.buf), i))
	}
	q.buf[i] = v
}

// PushBatch appends items with a single reservation — the fast path
// for per-chunk local buffers. It panics if the batch does not fit.
func (q *Queue[T]) PushBatch(items []T) {
	if len(items) == 0 {
		return
	}
	end := q.n.Add(int64(len(items)))
	if int(end) > len(q.buf) {
		panic(fmt.Sprintf("parallel: Queue overflow: capacity %d, pushing %d items at position %d",
			len(q.buf), len(items), end-int64(len(items))))
	}
	copy(q.buf[end-int64(len(items)):end], items)
}

// Len returns the current item count. Call only between regions: a
// concurrent Push makes the count immediately stale.
func (q *Queue[T]) Len() int { return int(q.n.Load()) }

// Cap returns the most items the queue holds between resets.
func (q *Queue[T]) Cap() int { return len(q.buf) }

// Slice returns the pushed items in arrival order (racy order; see
// type comment). The slice aliases the queue's buffer and is
// invalidated by Reset. Call only between regions.
func (q *Queue[T]) Slice() []T { return q.buf[:q.n.Load()] }

// Reset empties the queue, retaining capacity.
func (q *Queue[T]) Reset() { q.n.Store(0) }

// ChunkQueue collects one local buffer per chunk of a parallel region
// and concatenates them in chunk index order. Because chunk indices
// are stable across runs and worker counts (see For), the concatenated
// sequence is schedule-independent whenever each chunk's buffer is —
// no sort needed to canonicalize. This is the sliding-queue idiom of
// the real GAP suite (per-thread buffers flushed into a shared queue),
// made deterministic by fixing the flush order.
//
// Usage per region: Reset(NumChunks(n, grain)), then each chunk body
// builds its own slice — on a hot path Kept in a Slab — and hands it
// over with Put(chunk, items) exactly once. Len, Chunks, AppendTo and
// DrainChunkQueue observe the collected items and must only be called
// between regions (Put and the observers must never overlap). The queue owns no item storage of its own: consumers walk
// the chunk buffers in place.
type ChunkQueue[T any] struct {
	bufs [][]T
}

// NewChunkQueue returns an empty chunk queue. Reset sizes it.
func NewChunkQueue[T any]() *ChunkQueue[T] { return &ChunkQueue[T]{} }

// Reset prepares the queue for a region with nchunks chunks,
// discarding previously collected buffers (capacity is retained).
func (q *ChunkQueue[T]) Reset(nchunks int) {
	if cap(q.bufs) < nchunks {
		q.bufs = make([][]T, nchunks)
		return
	}
	q.bufs = q.bufs[:nchunks]
	for i := range q.bufs {
		q.bufs[i] = nil
	}
}

// Put stores chunk c's items. Each chunk must call Put at most once
// per Reset, and the queue takes ownership of items until the next
// Reset. Distinct chunks write distinct slots, so Put needs no
// synchronization.
func (q *ChunkQueue[T]) Put(c int, items []T) { q.bufs[c] = items }

// Len returns the total collected item count. Call only between
// regions (never concurrently with Put).
func (q *ChunkQueue[T]) Len() int {
	n := 0
	for _, b := range q.bufs {
		n += len(b)
	}
	return n
}

// Chunks returns the collected buffers in chunk order, for consumers
// that walk every item once: ranging over them visits the canonical
// concatenation without copying it. The buffers stay owned by the
// queue (and by whatever Slab backs them) and die at the next Reset.
// Call only between regions.
func (q *ChunkQueue[T]) Chunks() [][]T { return q.bufs }

// AppendTo appends all items in chunk order to dst and returns the
// extended slice — for the one consumer shape that must outlive the
// region, a frontier the next region reads while the queue refills.
// Call only between regions.
func (q *ChunkQueue[T]) AppendTo(dst []T) []T {
	for _, b := range q.bufs {
		dst = append(dst, b...)
	}
	return dst
}

// DrainChunkQueue maps f over the collected items in chunk order,
// appending every kept result to dst. It is the filtered concatenation
// used by the BFS kernels: tentative claims are pushed during the
// region and the losers are dropped here, once the final write-min
// values are known. Call only between regions.
func DrainChunkQueue[T, U any](q *ChunkQueue[T], dst []U, f func(T) (U, bool)) []U {
	for _, b := range q.bufs {
		for _, it := range b {
			if u, ok := f(it); ok {
				dst = append(dst, u)
			}
		}
	}
	return dst
}

// Claim records a tentative BFS discovery: frontier vertex By lowered
// the write-min parent slot of V. Every call that lowers the slot
// pushes a claim (LowerMinInt64), so the chunk holding the final
// minimum always holds a matching claim; draining with the filter
// "parent[V] == By" keeps exactly that one, making both the membership
// and the order of the next frontier schedule-independent.
type Claim struct {
	V, By uint32
}

// Slab stores one region's chunk outputs in a single array, backing the
// per-chunk slices a region hands to ChunkQueue.Put: a kernel that runs
// thousands of regions allocates no slice per chunk, and what it
// allocates does not depend on the schedule. A chunk appends into its
// worker's scratch and Keeps it: the items are copied into the slab
// and returned, and the scratch is the worker's again for its next
// chunk:
//
//	buf := s.Take(worker)
//	buf = append(buf, item) // any number of times
//	q.Put(chunk, s.Keep(worker, buf))
//
// A buffer per worker that holds its worker's whole share of a region
// would still allocate when warm whenever a worker draws a larger share
// than ever before, which the schedule decides. A Slab's sizes follow
// only the outputs: the slab holds the largest region output so far and
// Reset grows every worker's scratch to the largest chunk output so
// far, so a warm Slab allocates only in a region that outputs more, or
// has a chunk that outputs more, than any before. Retention is at most
// twice the largest region's output plus twice the largest chunk's per
// worker: never a high-water mark per chunk, nor per worker a whole
// region. The zero Slab is ready for Reset.
type Slab[T any] struct {
	scratch []slabBuf[T]
	items   []T
	// used counts the items Kept since Reset. Keep adds to it through
	// sync/atomic's functions rather than an atomic.Int64, so that a
	// struct holding a Slab may be copied between regions, as engines
	// copy their traverse.State on every Bind.
	used int64
}

// slabBuf is one worker's scratch and the largest chunk it Kept,
// padded to its own cache line: Keep rewrites it once per chunk.
type slabBuf[T any] struct {
	s    []T
	most int
	_    [cacheLine - 32]byte
}

// Reset readies the slab for one region executed by worker IDs below
// workers. Slices Kept before the call are dead: Reset the ChunkQueue
// they were Put into alongside. Call only between regions.
func (s *Slab[T]) Reset(workers int) {
	workers = max(workers, 1)
	for len(s.scratch) < workers {
		s.scratch = append(s.scratch, slabBuf[T]{})
	}
	// Both grow at least twofold, as append does: a run of regions each
	// a little larger than the last reallocates a logarithmic number of
	// times, not once a region.
	if n := int(s.used); n > len(s.items) {
		s.items = make([]T, max(n, 2*len(s.items)))
	}
	s.used = 0
	most := 0
	for i := range s.scratch {
		most = max(most, s.scratch[i].most)
	}
	for i := range s.scratch[:workers] {
		if c := cap(s.scratch[i].s); c < most {
			s.scratch[i].s = make([]T, 0, max(most, 2*c))
		}
	}
}

// Take returns worker's empty scratch. Only the goroutine running as
// that worker may hold it, and it must Keep it before its chunk ends.
func (s *Slab[T]) Take(worker int) []T { return s.scratch[worker].s[:0] }

// Keep hands worker's (possibly regrown) scratch back and returns a copy
// of its items, capacity-clamped so that nothing appended to the result
// can reach another chunk's items. The copy lies in the slab, or in a
// new array when this region has outgrown it.
func (s *Slab[T]) Keep(worker int, buf []T) []T {
	w := &s.scratch[worker]
	w.s, w.most = buf, max(w.most, len(buf))
	n := len(buf)
	end := int(atomic.AddInt64(&s.used, int64(n)))
	var out []T
	if end <= len(s.items) {
		out = s.items[end-n : end : end]
	} else {
		out = make([]T, n)
	}
	copy(out, buf)
	return out
}

// Cap returns the total item capacity the slab retains. Call only
// between regions.
func (s *Slab[T]) Cap() int {
	n := len(s.items)
	for i := range s.scratch {
		n += cap(s.scratch[i].s)
	}
	return n
}
