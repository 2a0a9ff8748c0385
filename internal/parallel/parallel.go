package parallel

import (
	"runtime"
	"sync"

	"github.com/hpcl-repro/epg/internal/xrand"
)

// Sched selects how chunk indices are assigned to workers.
// simmachine.Sched is this type, so engines name one policy for both
// real execution and virtual-lane accounting.
type Sched int

const (
	// Static assigns chunk c to worker c % workers, OpenMP
	// schedule(static, grain) style.
	Static Sched = iota
	// Dynamic hands each worker the next unclaimed chunk off a shared
	// atomic counter, OpenMP schedule(dynamic, grain) style.
	Dynamic
	// Steal seeds each worker with a round-robin share of the chunks
	// in a private Chase–Lev deque; owners pop locally and idle
	// workers steal from randomized victims (Cilk/TBB style). The
	// shared-counter serialization of Dynamic disappears: the only
	// cross-worker traffic is the occasional steal CAS.
	Steal
	// NUMA is Steal with two-level (socket-aware) victim selection:
	// idle workers sweep same-socket victims before probing remote
	// sockets, so chunks tend to stay on the socket of their static
	// owner. The socket layout comes from the Topology handed to
	// ForTopo (For uses DefaultTopology); with one socket the
	// discipline is exactly Steal.
	NUMA
)

// task is one dispatch to a pooled worker goroutine: run worker id's
// share of the region rec describes.
type task struct {
	rec *region
	id  int
}

// pworker is a pooled goroutine parked on its own task channel.
type pworker struct {
	tasks chan task
}

func (w *pworker) loop(p *Pool) {
	for t := range w.tasks {
		rec := t.rec
		rec.work(t.id)
		parked := p.park(w)
		rec.wg.Done() // the caller may recycle rec from here on
		if !parked {
			// Idle set full: nobody holds a reference to this worker
			// anymore, so exit instead of blocking on the channel
			// forever (blocked goroutines are never collected).
			return
		}
	}
}

// Pool is a reusable set of worker goroutines and of region records.
// Run borrows workers for the duration of one parallel region and
// parks them again afterwards, so hot kernels that issue thousands of
// small regions (one per BFS level) do not pay a goroutine spawn per
// region. What a region hands its workers — the body, the chunk
// shape and schedule, the Dynamic counter, the steal deques, the wait
// group and the panic cell — lives in a region record taken from the
// pool's free list and returned to it afterwards, so a warm region
// allocates nothing at any worker count: the body is passed as a
// func value the caller already holds, never captured in a closure
// built per region. The free list is a buffered channel, like the idle
// set, so concurrent callers (epgd's executors share Default) each
// take their own record, and it keeps its records under -race, where
// a sync.Pool drops some at random.
//
// The zero Pool is not usable; call NewPool. A Pool never needs to be
// closed: parked goroutines and free records are bounded by its idle
// capacity and are reused process-wide when obtained from Default.
type Pool struct {
	idle chan *pworker
	free chan *region
}

// NewPool returns a pool that parks at most idleCap workers and keeps
// at most idleCap region records between regions (more may exist
// transiently; extra workers exit and extra records are dropped).
func NewPool(idleCap int) *Pool {
	if idleCap < 1 {
		idleCap = 1
	}
	return &Pool{idle: make(chan *pworker, idleCap), free: make(chan *region, idleCap)}
}

var (
	defaultPool     *Pool
	defaultPoolOnce sync.Once
)

// Default returns the process-wide shared pool. Its idle capacity
// scales with GOMAXPROCS but admits oversubscribed regions (worker
// counts above the core count are legal and used by the determinism
// tests).
func Default() *Pool {
	defaultPoolOnce.Do(func() {
		c := 4 * runtime.GOMAXPROCS(0)
		if c < 16 {
			c = 16
		}
		defaultPool = NewPool(c)
	})
	return defaultPool
}

// park returns a worker to the idle set; if the set is full the worker
// exits (its channel is closed by dropping the only reference — the
// goroutine ends when loop returns).
func (p *Pool) park(w *pworker) bool {
	select {
	case p.idle <- w:
		return true
	default:
		return false
	}
}

func (w *pworker) run(t task) bool {
	select {
	case w.tasks <- t:
		return true
	default:
		return false
	}
}

// Run executes fn(workerID) for worker IDs 0..workers-1 concurrently
// and returns when all have finished. The calling goroutine acts as
// worker 0, so Run(1, fn) is a plain function call with no goroutines,
// no channels, and no synchronization — the serial baseline really is
// serial. fn must not call Run on the same pool (regions do not nest;
// the engines' parallel regions never do). A warm Run allocates
// nothing of its own; a closure fn that captures variables is the
// caller's allocation.
//
// A panic inside fn on ANY worker is captured, the region is run to
// completion on the remaining workers, and the first panic value is
// re-raised on the calling goroutine. Without this a panicking pooled
// goroutine would kill the whole process (and strand the region's
// WaitGroup); with it, a long-running caller — the serving daemon —
// can recover per-query panics at the point it issued the region. The
// original panic value is preserved so callers that assert on panic
// messages (queue-overflow diagnostics) see it unchanged; the stack of
// the panicking worker is lost, which the re-raise trades for process
// survival.
func (p *Pool) Run(workers int, fn func(worker int)) {
	if workers <= 1 {
		fn(0)
		return
	}
	r := p.acquire()
	defer p.release(r)
	r.workers, r.fn = workers, fn
	r.run(p)
}

// NumChunks returns the chunk count ParallelFor uses for n items at
// the given grain — the slot count for chunk-indexed reducers.
func NumChunks(n, grain int) int {
	if n <= 0 {
		return 0
	}
	if grain < 1 {
		grain = 1
	}
	return (n + grain - 1) / grain
}

// For executes body over [0, n) in chunks of the given grain on up to
// `workers` real workers from the pool. body receives the half-open
// index range, the chunk index (stable across runs and worker counts),
// and the real worker ID (for per-worker scratch; never use it to key
// results that must be deterministic).
func For(p *Pool, workers, n, grain int, sched Sched, body func(lo, hi, chunk, worker int)) {
	ForTopo(p, workers, n, grain, sched, Topology{}, body)
}

// ForTopo is For with an explicit socket topology for the NUMA policy
// (the other policies ignore it). The zero Topology resolves to
// DefaultTopology. With one worker the chunks run in index order on
// the calling goroutine — the order every policy gives a lone worker.
func ForTopo(p *Pool, workers, n, grain int, sched Sched, topo Topology, body func(lo, hi, chunk, worker int)) {
	nchunks := NumChunks(n, grain)
	if nchunks == 0 {
		return
	}
	grain = max(grain, 1)
	workers = max(min(workers, nchunks), 1)
	if workers == 1 {
		for c := 0; c < nchunks; c++ {
			body(c*grain, min((c+1)*grain, n), c, 0)
		}
		return
	}
	r := p.acquire()
	defer p.release(r)
	r.forChunks(p, workers, n, grain, sched, topo, body)
}

// StealSeed derives the per-region RNG seed for steal victim
// selection from the region's shape: the chunk count and the number
// of consumers (real workers here; virtual lanes in the simmachine's
// steal simulation, which shares this formula so the modeled
// discipline mirrors the real one). A pure function, so the same
// region reruns with the same steal schedule — reproducibility of the
// *real* execution, though nothing observable depends on it (outputs
// key off chunk indices and modeled costs key off the virtual-lane
// policy).
func StealSeed(nchunks, consumers int) uint64 {
	return xrand.Mix64(0x57ea1<<40 ^ uint64(nchunks)<<16 ^ uint64(consumers))
}
