package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/harness"
	"github.com/hpcl-repro/epg/internal/logfmt"
)

// Config parameterizes a daemon.
type Config struct {
	// Dataset is a harness dataset name ("kron-12", "dota-league",
	// "cit-Patents"); Seed feeds the synthetic generators.
	Dataset string
	Seed    uint64
	// Executors is the number of engine instances serving in parallel
	// (each owns a machine and serves one query at a time); Threads is
	// the modeled thread count of each. Defaults: 2 and 8.
	Executors int
	Threads   int
	// Admit configures admission control; zero values get defaults
	// (QueueCap 64, watermark half the cap, throttling off).
	Admit AdmitConfig
	// DefaultDeadlineSec is the modeled service budget applied when a
	// query does not carry one; <= 0 means no default budget.
	DefaultDeadlineSec float64
	// Landmarks sizes the degradation sketch (default 8; 0 after
	// defaulting disables degraded answers).
	Landmarks int
	// Compress serves BFS/PR from the delta+varint compressed
	// adjacency (trades decode cycles for bandwidth, as in the
	// compression study).
	Compress bool
	// FaultInjection permits OpPanic queries, for soak tests that
	// prove panic isolation.
	FaultInjection bool
	// QueryLog, when non-nil, receives one structured line per query
	// (logfmt.EmitQuery).
	QueryLog io.Writer
}

func (c Config) withDefaults() Config {
	if c.Executors <= 0 {
		c.Executors = 2
	}
	if c.Threads <= 0 {
		c.Threads = 8
	}
	if c.Admit.QueueCap == 0 {
		c.Admit.QueueCap = 64
	}
	if c.Admit.DegradeWatermark == 0 {
		c.Admit.DegradeWatermark = c.Admit.QueueCap / 2
	}
	if c.Landmarks == 0 {
		c.Landmarks = 8
	}
	return c
}

// pending is one admitted query waiting for an executor.
type pending struct {
	ctx      context.Context
	q        Query
	seq      int64
	budget   float64
	degraded bool
	refresh  bool
	// mutate, when non-nil, is a maintenance entry like refresh: the
	// dequeuing executor applies the batch, re-converges the vectors
	// incrementally, and swaps vectors+sketch+log in one critical
	// section. mutRep is written by the executor before it responds
	// (the resC receive orders the read).
	mutate graph.Batch
	mutRep *engines.MutationReport
	depth  int // queue depth observed at admission, for the log
	resC   chan Response
}

// Server is a running daemon instance (transport-agnostic; see
// Handler for HTTP).
type Server struct {
	cfg Config
	// n and weighted are all the server keeps of the graph it started
	// on (the query ID space; whether SSSP is servable): the adjacency
	// belongs to the executors, whose epochs replace it.
	n        int
	weighted bool
	execs    []*executor

	// vecMu guards the precomputed state a refresh or mutate swaps: the
	// PR/WCC vectors AND the degradation sketch (plus its generation
	// counter — monotone, bumped by every successful refresh/mutate, so
	// tests can prove degraded answers come from the rebuilt sketch,
	// not a stale one), plus the append-only mutation batch log and the
	// current homogenized adjacency epoch. Executors replay the log
	// lazily when they dequeue, so every query is served on a graph at
	// least as new as the last acknowledged mutation.
	vecMu     sync.RWMutex
	vec       vectors
	sketch    *Sketch
	sketchGen uint64
	batches   []graph.Batch

	// maintMu serializes maintenance (refresh, mutate) from the
	// executor's sync through the swap: two mutates dequeued at once
	// would each miss the other's not-yet-logged batch, and the second to
	// swap would claim a log generation its instance never applied. It
	// also makes the published sketch the sketch of exactly the graph a
	// synced executor holds, as Repair requires. Queries never take it.
	maintMu sync.Mutex

	admit   *admitter
	queue   chan *pending
	metrics Metrics
	seq     atomic.Int64
	started time.Time

	logMu   sync.Mutex
	wg      sync.WaitGroup
	stopped chan struct{}
	closed  atomic.Bool
}

// New resolves cfg.Dataset and starts a server.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	el, err := harness.ResolveDataset(cfg.Dataset, harness.DatasetOptions{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	return NewFromEdgeList(el, cfg)
}

// NewFromEdgeList starts a server over an in-memory edge list:
// homogenizes it once, loads one engine instance per executor from that
// one graph, precomputes the PR/WCC vectors, builds the landmark
// sketch, and starts the executor goroutines. The returned server is
// serving.
func NewFromEdgeList(el *graph.EdgeList, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Admit.validate(); err != nil {
		return nil, err
	}
	g, err := graph.Homogenize(el)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		n:        g.NumVertices,
		weighted: g.Weighted,
		admit:    newAdmitter(cfg.Admit),
		queue:    make(chan *pending, cfg.Admit.QueueCap),
		started:  time.Now(),
		stopped:  make(chan struct{}),
	}
	for i := 0; i < cfg.Executors; i++ {
		e, err := newExecutor(i, g, cfg.Threads, cfg.Compress)
		if err != nil {
			return nil, err
		}
		s.execs = append(s.execs, e)
	}
	vec, err := s.execs[0].computeVectors()
	if err != nil {
		return nil, err
	}
	s.vec = vec
	s.sketch = BuildSketch(g.Out, cfg.Landmarks)
	s.sketchGen = 1
	for _, e := range s.execs {
		s.wg.Add(1)
		go s.serveLoop(e)
	}
	return s, nil
}

// NumVertices reports the homogenized vertex count (query ID space).
func (s *Server) NumVertices() int { return s.n }

// Weighted reports whether SSSP queries are servable.
func (s *Server) Weighted() bool { return s.weighted }

// Metrics returns the live counters.
func (s *Server) Metrics() MetricsSnapshot { return s.metrics.Snapshot() }

// QueueDepth returns the current admission queue depth.
func (s *Server) QueueDepth() int { return s.admit.Depth() }

// MaxQueueDepth returns the depth high-water mark.
func (s *Server) MaxQueueDepth() int { return s.admit.MaxDepth() }

// Close stops accepting queries, drains the executors, and waits for
// them to exit. Safe to call twice.
func (s *Server) Close() {
	if s.closed.CompareAndSwap(false, true) {
		close(s.stopped)
	}
	s.wg.Wait()
}

// snapshot returns the precomputed state one query serves from — the
// vectors and the sketch taken under one lock, so a query never mixes
// pre-refresh vectors with a post-refresh sketch or vice versa.
func (s *Server) snapshot() (vectors, *Sketch) {
	s.vecMu.RLock()
	defer s.vecMu.RUnlock()
	return s.vec, s.sketch
}

// SketchGeneration returns the degradation sketch's generation:
// 1 after construction, +1 per successful refresh.
func (s *Server) SketchGeneration() uint64 {
	s.vecMu.RLock()
	defer s.vecMu.RUnlock()
	return s.sketchGen
}

// serveLoop is one executor's goroutine: dequeue, serve, respond.
// After Close it drains whatever is already queued (those callers
// were admitted and are waiting) and exits.
func (s *Server) serveLoop(e *executor) {
	defer s.wg.Done()
	for {
		select {
		case p := <-s.queue:
			s.serveOne(e, p)
		case <-s.stopped:
			for {
				select {
				case p := <-s.queue:
					s.serveOne(e, p)
				default:
					return
				}
			}
		}
	}
}

func (s *Server) serveOne(e *executor, p *pending) {
	s.admit.release()
	var resp Response
	if p.refresh || p.mutate != nil {
		resp = s.maintainOn(e, p)
		// Maintenance holds a queue slot but is not a query: keeping it
		// out of the outcome counters preserves the exact identity
		// completed+deadline+errors+panics == admitted.
		p.resC <- resp
		return
	}
	// Catch this executor's resident graph up with the acknowledged
	// mutation log before serving, so a query admitted after a mutate
	// completed never reads a pre-mutation structure.
	if err := s.syncExecutor(e); err != nil {
		resp = Response{Op: p.q.Op, Source: p.q.Source, Target: p.q.Target,
			Status: StatusError, Err: err.Error()}
	} else {
		vec, sketch := s.snapshot()
		resp = e.run(p.ctx, p.q, p.budget, p.degraded, vec, sketch)
	}
	switch resp.Status {
	case StatusOK:
		s.metrics.Completed.Add(1)
		if resp.Degraded {
			s.metrics.Degraded.Add(1)
		}
	case StatusDeadline:
		s.metrics.DeadlineExceeded.Add(1)
	case StatusPanic:
		s.metrics.Panics.Add(1)
	default:
		s.metrics.Errors.Add(1)
	}
	s.logQuery(p, resp)
	p.resC <- resp // buffered: never blocks, even if the caller left
}

func (s *Server) logQuery(p *pending, resp Response) {
	if s.cfg.QueryLog == nil {
		return
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	logfmt.EmitQuery(s.cfg.QueryLog, logfmt.QueryRecord{
		Seq:       p.seq,
		Op:        string(p.q.Op),
		Src:       uint32(p.q.Source),
		Dst:       uint32(p.q.Target),
		Status:    string(resp.Status),
		Degraded:  resp.Degraded,
		ModeledUS: resp.ModeledSec * 1e6,
		Depth:     p.depth,
	})
}

func (s *Server) logShed(seq int64, q Query, status Status, depth int) {
	if s.cfg.QueryLog == nil {
		return
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	logfmt.EmitQuery(s.cfg.QueryLog, logfmt.QueryRecord{
		Seq:    seq,
		Op:     string(q.Op),
		Src:    uint32(q.Source),
		Dst:    uint32(q.Target),
		Status: string(status),
		Depth:  depth,
	})
}

// syncExecutor replays any acknowledged mutation batches this
// executor's instance has not applied yet and rebinds its adjacency
// epoch. The log is append-only and e.gen is only touched by e's own
// serve goroutine, so a read-locked snapshot of the tail is safe.
func (s *Server) syncExecutor(e *executor) error {
	s.vecMu.RLock()
	var todo []graph.Batch
	if e.gen < len(s.batches) {
		todo = s.batches[e.gen:]
	}
	s.vecMu.RUnlock()
	if len(todo) == 0 {
		return nil
	}
	for _, b := range todo {
		if _, err := e.inst.Mutate(b); err != nil {
			return fmt.Errorf("server: executor %d sync: %w", e.id, err)
		}
		e.gen++
	}
	e.csr = e.inst.OutCSR()
	return nil
}

// maintainOn executes a refresh or mutate entry on the dequeuing
// executor, one maintenance at a time: sync the instance, apply the new
// batch (mutate only), re-converge the vectors incrementally, bring the
// degradation sketch to the post-batch adjacency — a mutate repairs the
// published one at a cost that follows the batch, a refresh rebuilds it
// — and swap vectors + sketch + log in one critical section. Queries
// keep flowing on the other executors throughout; they observe the new
// state atomically.
func (s *Server) maintainOn(e *executor, p *pending) Response {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	if err := s.syncExecutor(e); err != nil {
		return Response{Status: StatusError, Err: err.Error()}
	}
	// Synced under maintMu, e holds the graph the published sketch is of.
	pre := e.csr
	if p.mutate != nil {
		rep, err := e.inst.Mutate(p.mutate)
		if err != nil {
			// Validation failed atomically: the instance is unchanged
			// and the batch is not logged, so nothing diverges.
			return Response{Status: StatusError, Err: err.Error()}
		}
		p.mutRep = rep
		e.csr = e.inst.OutCSR()
	}
	vec, err := e.computeVectors()
	if err != nil {
		return Response{Status: StatusError, Err: err.Error()}
	}
	// The degradation sketch is precomputation too: a swap that
	// replaced the vectors but kept the old sketch would keep serving
	// degraded answers from stale state. Bring it to the current epoch
	// and swap everything in one critical section.
	var sketch *Sketch
	if p.mutate != nil {
		_, published := s.snapshot()
		sketch = published.Repair(pre, e.csr, e.inst.InCSR())
	} else {
		sketch = BuildSketch(e.csr, s.cfg.Landmarks)
	}
	s.vecMu.Lock()
	if p.mutate != nil {
		s.batches = append(s.batches, p.mutate)
		e.gen = len(s.batches)
	}
	s.vec = vec
	s.sketch = sketch
	s.sketchGen++
	s.vecMu.Unlock()
	return Response{Status: StatusOK}
}

// Submit runs one query through admission, the queue, and an
// executor, blocking until the response (or ctx cancellation while
// queued — the executor will also observe the cancellation through
// its hook and abandon the kernel at the next frontier).
func (s *Server) Submit(ctx context.Context, q Query) Response {
	seq := s.seq.Add(1)
	if s.closed.Load() {
		return Response{Op: q.Op, Source: q.Source, Target: q.Target,
			Status: StatusError, Err: "server closed"}
	}
	if err := q.validate(s.n, s.weighted, s.cfg.FaultInjection); err != nil {
		s.metrics.Rejected.Add(1)
		return Response{Op: q.Op, Source: q.Source, Target: q.Target,
			Status: StatusError, Err: err.Error()}
	}
	s.metrics.Offered.Add(1)
	now := time.Since(s.started).Seconds()
	depth := s.admit.Depth()
	dec := s.admit.tryAdmit(now, q.degradable(s.weighted))
	switch dec {
	case shedQueueFull:
		s.metrics.ShedQueueFull.Add(1)
		s.logShed(seq, q, StatusShed, depth)
		return Response{Op: q.Op, Source: q.Source, Target: q.Target,
			Status: StatusShed, Err: "queue full"}
	case shedThrottled:
		s.metrics.ShedThrottled.Add(1)
		s.logShed(seq, q, StatusShed, depth)
		return Response{Op: q.Op, Source: q.Source, Target: q.Target,
			Status: StatusShed, Err: "rate limited"}
	}
	s.metrics.Admitted.Add(1)
	budget := q.DeadlineSec
	if budget <= 0 {
		budget = s.cfg.DefaultDeadlineSec
	}
	p := &pending{
		ctx:      ctx,
		q:        q,
		seq:      seq,
		budget:   budget,
		degraded: dec == admitDegraded,
		depth:    depth,
		resC:     make(chan Response, 1),
	}
	// Never blocks: entries in the channel cannot exceed the admitted
	// depth, and depth <= QueueCap == cap(queue) by the admitter.
	s.queue <- p
	select {
	case resp := <-p.resC:
		return resp
	case <-ctx.Done():
		// The executor will still process p (and observe ctx through
		// the hook); the buffered resC absorbs its response.
		return Response{Op: q.Op, Source: q.Source, Target: q.Target,
			Status: StatusDeadline, Err: ctx.Err().Error()}
	}
}

// Sentinel errors for the maintenance entry points, so transports can
// map them to distinct status codes.
var (
	// ErrClosed reports a server that no longer accepts work.
	ErrClosed = errors.New("server closed")
	// ErrOverloaded reports maintenance shed by the bounded queue.
	ErrOverloaded = errors.New("server overloaded")
	// ErrInvalidBatch wraps mutation-batch validation failures — the
	// client's error, rejected before any queue slot is taken.
	ErrInvalidBatch = errors.New("invalid mutation batch")
)

// Refresh recomputes the PR/WCC vectors on an executor, swapping them
// in atomically. It shares the bounded queue (a refresh is heavy
// executor work and must not bypass overload protection) but not the
// token bucket. The recompute runs through the incremental
// maintainers, so an up-to-date baseline swaps at near-zero modeled
// cost instead of re-paying full kernel runs.
func (s *Server) Refresh(ctx context.Context) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if !s.admit.tryReserve() {
		return fmt.Errorf("%w: refresh shed (queue full)", ErrOverloaded)
	}
	p := &pending{ctx: ctx, refresh: true, seq: s.seq.Add(1), resC: make(chan Response, 1)}
	s.queue <- p
	select {
	case resp := <-p.resC:
		if resp.Status != StatusOK {
			return fmt.Errorf("refresh failed: %s", resp.Err)
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Mutate applies one batch of edge mutations to the served graph: the
// dequeuing executor updates its resident structures in place,
// re-converges the PR/WCC vectors incrementally and repairs the
// degradation sketch (both bit-equal to a full recompute on the
// post-batch graph), and swaps everything atomically. Concurrent queries are
// never dropped — they serve from the previous epoch until the swap,
// and executors replay the acknowledged batch log before serving.
// Like Refresh, a mutate holds a bounded-queue slot but stays out of
// the query outcome counters.
func (s *Server) Mutate(ctx context.Context, batch graph.Batch) (*engines.MutationReport, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if batch == nil {
		// Keep the maintenance marker non-nil so an empty batch still
		// routes through maintainOn (a harmless vector re-swap), never
		// through the query path.
		batch = graph.Batch{}
	}
	if err := batch.Validate(s.n, s.weighted); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidBatch, err)
	}
	if !s.admit.tryReserve() {
		return nil, fmt.Errorf("%w: mutate shed (queue full)", ErrOverloaded)
	}
	p := &pending{ctx: ctx, mutate: batch, seq: s.seq.Add(1), resC: make(chan Response, 1)}
	s.queue <- p
	select {
	case resp := <-p.resC:
		if resp.Status != StatusOK {
			return nil, fmt.Errorf("mutate failed: %s", resp.Err)
		}
		return p.mutRep, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
