package parallel

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// region is the record of one parallel region: everything its workers
// read to find their share, and the cell a panicking worker leaves its
// value in. The caller fills it, dispatches it by pointer and waits;
// nothing is captured in a closure, so a record taken from the pool's
// free list makes the region allocation-free. A record serves one
// region at a time and outlives it: the deques keep their arrays, the
// bitmap passes their counts, and release drops every reference to the
// caller's data.
type region struct {
	workers int
	// fn is Run's body; body and the chunk shape are For's. Exactly one
	// of fn and body is set while the region runs.
	fn                func(worker int)
	body              func(lo, hi, chunk, worker int)
	n, grain, nchunks int
	sched             Sched
	// next is Dynamic's shared counter: the next unclaimed chunk, on a
	// line of its own so claims do not evict what every chunk reads.
	_    [cacheLine]byte
	next atomic.Int64
	_    [cacheLine - 8]byte
	// Steal and NUMA: one Chase–Lev deque per worker (kept, regrown on
	// demand), the victim-selection seed and the topology's levels and
	// block sizes (stealChunks).
	deques                   []*Deque
	seed                     uint64
	levels, perSock, perNode int

	wg       sync.WaitGroup
	panicked atomic.Bool
	panicVal any // written by the first panicking worker, read after wg.Wait

	// Bitmap.ToSlice's two passes: the bitmap, one set-bit count per
	// chunk (kept), the output window, and the passes' bodies, bound to
	// this record once.
	bits             *Bitmap
	counts           []int64
	out              []uint32
	countFn, placeFn func(lo, hi, chunk, worker int)
}

// acquire returns a free region record, or a new one when every record
// is in use by a concurrent caller.
func (p *Pool) acquire() *region {
	select {
	case r := <-p.free:
		return r
	default:
		r := &region{}
		r.countFn, r.placeFn = r.countWords, r.placeWords
		return r
	}
}

// release drops r's references to the caller's data, clears its panic
// cell and returns it to the free list (or to the collector when the
// list is full). Every worker has finished with r by now: run waited.
func (p *Pool) release(r *region) {
	r.fn, r.body, r.bits, r.out = nil, nil, nil, nil
	r.panicked.Store(false)
	r.panicVal = nil
	select {
	case p.free <- r:
	default:
	}
}

// run hands workers 1..r.workers-1 to pooled goroutines, runs worker 0
// on the calling goroutine, waits for all of them and re-raises the
// first panic any of them captured.
func (r *region) run(p *Pool) {
	r.wg.Add(r.workers - 1)
	for id := 1; id < r.workers; id++ {
		t := task{rec: r, id: id}
		select {
		case w := <-p.idle:
			if !w.run(t) {
				// Cannot happen: parked workers have drained their
				// channel. Kept as a safe fallback.
				go func(t task) { t.rec.work(t.id); t.rec.wg.Done() }(t)
			}
		default:
			w := &pworker{tasks: make(chan task, 1)}
			w.run(t)
			go w.loop(p)
		}
	}
	r.work(0)
	r.wg.Wait()
	if r.panicked.Load() {
		panic(r.panicVal) // wg.Wait orders the worker's write before this read
	}
}

// work runs worker's share of the region, capturing a panic into the
// record instead of letting it kill a pooled goroutine.
func (r *region) work(worker int) {
	defer func() {
		if v := recover(); v != nil && r.panicked.CompareAndSwap(false, true) {
			r.panicVal = v
		}
	}()
	switch {
	case r.fn != nil:
		r.fn(worker)
	case r.sched == Static:
		for c := worker; c < r.nchunks; c += r.workers {
			r.chunk(c, worker)
		}
	case r.sched == Dynamic:
		for {
			c := int(r.next.Add(1)) - 1
			if c >= r.nchunks {
				return
			}
			r.chunk(c, worker)
		}
	default: // Steal, NUMA
		r.stealChunks(worker)
	}
}

// chunk runs chunk c of a For region on worker.
func (r *region) chunk(c, worker int) {
	lo := c * r.grain
	r.body(lo, min(lo+r.grain, r.n), c, worker)
}

// forChunks runs body over [0, n) in chunks of grain on workers (at
// least two) under sched: ForTopo on a record the caller holds.
func (r *region) forChunks(p *Pool, workers, n, grain int, sched Sched, topo Topology, body func(lo, hi, chunk, worker int)) {
	r.workers, r.body = workers, body
	r.n, r.grain, r.nchunks, r.sched = n, grain, NumChunks(n, grain), sched
	switch sched {
	case Static:
	case Steal:
		r.prefill(Topology{Sockets: 1})
	case NUMA:
		r.prefill(topo)
	default:
		r.next.Store(0)
	}
	r.run(p)
}

// countWords is ToSlice's first pass: chunk's set-bit count.
func (r *region) countWords(lo, hi, chunk, worker int) {
	var c int64
	for _, w := range r.bits.words[lo:hi] {
		c += int64(bits.OnesCount64(w))
	}
	r.counts[chunk] = c
}

// placeWords is ToSlice's second pass: chunk's set bits, in ascending
// order, from the cursor the scan of the counts gave it.
func (r *region) placeWords(lo, hi, chunk, worker int) {
	words, out, pos := r.bits.words, r.out, r.counts[chunk]
	for wi := lo; wi < hi; wi++ {
		w := words[wi]
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			out[pos] = uint32(wi<<6 + bit)
			pos++
			w &= w - 1
		}
	}
}
