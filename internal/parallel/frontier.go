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
// builds its own slice — on a hot path out of its worker's Arena — and
// hands it over with Put(chunk, items) exactly once. Len, Chunks,
// AppendTo and DrainChunkQueue observe the collected items and must
// only be called between regions (Put and the observers must never
// overlap). The queue owns no item storage of its own: consumers walk
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
// queue (and by whatever Arena backs them) and die at the next Reset.
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

// Arena is a set of per-worker append buffers backing the per-chunk
// slices a region hands to ChunkQueue.Put, so a kernel that runs
// thousands of regions does not allocate a fresh slice per chunk per
// region. A chunk Takes its worker's buffer, appends its items past
// the ones earlier chunks of that worker left there, and Gives the
// buffer back, receiving its own items as a sub-slice to Put:
//
//	buf := a.Take(worker)
//	start := len(buf)
//	buf = append(buf, item) // any number of times
//	q.Put(chunk, a.Give(worker, buf, start))
//
// Which worker runs which chunk is schedule-dependent, and so is the
// split of items across buffers — but each chunk's sub-slice holds
// exactly what the chunk appended, so everything observable through
// the ChunkQueue keeps its guarantees. When an append outgrows a
// buffer, sub-slices handed out earlier keep pointing into the old
// array, which stays alive through the queue until its next Reset.
//
// Retention is one buffer per worker, each at most the capacity its
// worker's share of some single region needed: bounded by the largest
// region's output, never by the number of chunks or regions. The zero
// Arena is ready for Reset.
type Arena[T any] struct {
	bufs []arenaBuf[T]
}

// arenaBuf pads each worker's slice header to its own cache line: Give
// rewrites it once per chunk.
type arenaBuf[T any] struct {
	s []T
	_ [cacheLine - 24]byte
}

// Reset readies the arena for one region executed by worker IDs below
// workers and rewinds every buffer, keeping capacity. Sub-slices handed
// out before the call are dead: Reset the ChunkQueue they were Put
// into alongside. Call only between regions.
func (a *Arena[T]) Reset(workers int) {
	if workers < 1 {
		workers = 1
	}
	for len(a.bufs) < workers {
		a.bufs = append(a.bufs, arenaBuf[T]{})
	}
	for i := range a.bufs {
		a.bufs[i].s = a.bufs[i].s[:0]
	}
}

// Take returns worker's buffer; its length marks where this chunk's
// items start. Only the goroutine running as that worker may hold it,
// and it must Give it back before its chunk ends.
func (a *Arena[T]) Take(worker int) []T { return a.bufs[worker].s }

// Give hands worker's (possibly regrown) buffer back and returns the
// items appended past start, capacity-clamped so that nothing appended
// to the result can reach a later chunk's items.
func (a *Arena[T]) Give(worker int, buf []T, start int) []T {
	a.bufs[worker].s = buf
	return buf[start:len(buf):len(buf)]
}

// Cap returns the total item capacity the arena retains. Call only
// between regions.
func (a *Arena[T]) Cap() int {
	n := 0
	for i := range a.bufs {
		n += cap(a.bufs[i].s)
	}
	return n
}
