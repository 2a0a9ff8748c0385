package server

import (
	"cmp"
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
	// mutate, when non-nil, makes this a maintenance entry (maintain).
	// mutRep is written before the response is sent (the resC receive
	// orders the read).
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
	// belongs to the published epochs, which replace it.
	n        int
	weighted bool
	execs    []*executor

	// pub is the one generation queries are answered from. A query loads
	// it once, so it never mixes one generation's vectors with another's
	// sketch or adjacency, and a query admitted after a mutate was
	// acknowledged is served on the post-batch graph.
	pub atomic.Pointer[published]
	// maint is the one executor that is ever mutated. It has no
	// goroutine: whichever executor dequeues a mutate runs it
	// on maint under maintMu, one maintenance at a time, so the
	// published epoch is always the one maint stood on before the next
	// batch, as Repair requires. Queries never take maintMu. repair is
	// the maintainer's sketch-repair scratch, used only under maintMu.
	maintMu sync.Mutex
	maint   *executor
	repair  repairer

	admit   *admitter
	queue   chan *pending
	metrics Metrics
	seq     atomic.Int64
	started time.Time

	logMu sync.Mutex
	wg    sync.WaitGroup
	// draining refuses new work: set by Drain under drainMu, read under
	// its read lock up to the send to queue. stopped, closed once by
	// Close, lets the executors exit when the queue is empty.
	drainMu  sync.RWMutex
	draining atomic.Bool
	stopped  chan struct{}
	stop     sync.Once
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
// homogenizes it once, loads the maintainer and one engine instance per
// executor from that one graph, publishes generation 1 (PR/WCC vectors,
// landmark sketch), and starts the executor goroutines. The returned
// server is serving.
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
	maint, pub, err := newMaintainer(g, cfg.Threads, cfg.Landmarks, cfg.Compress)
	if err != nil {
		return nil, err
	}
	s.maint = maint
	s.pub.Store(pub)
	for i := 0; i < cfg.Executors; i++ {
		s.execs = append(s.execs, newExecutor(g, cfg.Threads, cfg.Compress))
	}
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

// Drain stops admitting: from here on Submit and Mutate refuse as
// closed (503 and "Connection: close" over HTTP) without touching the
// admission ledger, while every entry already admitted is still served.
// The daemon drains before it shuts its listener down, so a request
// arriving on an already-open connection during the grace period is
// turned away instead of queued.
func (s *Server) Drain() {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
}

// Close drains, lets the executors finish what was admitted, and waits
// for them to exit. Safe to call twice.
func (s *Server) Close() {
	s.Drain()
	s.stop.Do(func() { close(s.stopped) })
	s.wg.Wait()
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
	if p.mutate != nil {
		// Maintenance holds a queue slot but is not a query: keeping it
		// out of the outcome counters preserves the exact identity
		// completed+deadline+errors+panics == admitted.
		p.resC <- s.maintain(p)
		return
	}
	resp := e.run(p.ctx, p.q, p.budget, p.degraded, s.pub.Load())
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

// maintain executes a mutate entry, one at a time, on the maintainer:
// apply the batch (an empty one, a refresh, applies nothing), maintain
// the vectors incrementally, repair the published degradation sketch at
// a cost that follows the batch, and publish all of it as the next
// generation in one store, which the response reports. Queries keep
// flowing throughout; each binds the new generation when it next
// dequeues one.
func (s *Server) maintain(p *pending) Response {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	cur, m := s.pub.Load(), s.maint
	if len(p.mutate) > 0 {
		rep, err := m.inst.Mutate(p.mutate)
		if err != nil {
			// Validation failed atomically: the maintainer is unchanged.
			return Response{Status: StatusError, Err: err.Error()}
		}
		p.mutRep = rep
	}
	vec, err := m.computeVectors()
	if err != nil {
		return Response{Status: StatusError, Err: err.Error()}
	}
	next := &published{g: m.inst.Graph(), vec: vec, gen: cur.gen + 1}
	next.sketch = cur.sketch.Repair(&s.repair, cur.g.Out, next.g.Out, cmp.Or(next.g.In, next.g.Out))
	s.pub.Store(next)
	return Response{Status: StatusOK, Gen: next.gen}
}

// Submit runs one query through admission, the queue, and an
// executor, blocking until the response (or ctx cancellation while
// queued — the executor will also observe the cancellation through
// its hook and abandon the kernel at the next frontier).
func (s *Server) Submit(ctx context.Context, q Query) Response {
	p, refused := s.admitQuery(ctx, q)
	if p == nil {
		return refused
	}
	select {
	case resp := <-p.resC:
		return resp
	case <-ctx.Done():
		// The executor will still process p (and observe ctx through
		// the hook); the buffered resC absorbs its response.
		return q.response(StatusDeadline, ctx.Err().Error())
	}
}

// admitQuery queues q or returns nil and the refusal. Against Drain the
// draining check and the send are one step: q is refused or served.
func (s *Server) admitQuery(ctx context.Context, q Query) (*pending, Response) {
	seq := s.seq.Add(1)
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining.Load() {
		return nil, q.response(StatusError, ErrClosed.Error())
	}
	if err := q.validate(s.n, s.weighted, s.cfg.FaultInjection); err != nil {
		s.metrics.Rejected.Add(1)
		return nil, q.response(StatusError, err.Error())
	}
	s.metrics.Offered.Add(1)
	now := time.Since(s.started).Seconds()
	depth := s.admit.Depth()
	dec := s.admit.tryAdmit(now, q.degradable(s.weighted))
	switch dec {
	case shedQueueFull:
		s.metrics.ShedQueueFull.Add(1)
		s.logShed(seq, q, StatusShed, depth)
		return nil, q.response(StatusShed, "queue full")
	case shedThrottled:
		s.metrics.ShedThrottled.Add(1)
		s.logShed(seq, q, StatusShed, depth)
		return nil, q.response(StatusShed, "rate limited")
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
	return p, Response{}
}

// Sentinel errors for Mutate, so transports can map them to distinct
// status codes.
var (
	// ErrClosed reports a server that no longer accepts work.
	ErrClosed = errors.New("server closed")
	// ErrOverloaded reports maintenance shed by the bounded queue.
	ErrOverloaded = errors.New("server overloaded")
	// ErrInvalidBatch wraps mutation-batch validation failures — the
	// client's error, rejected before any queue slot is taken.
	ErrInvalidBatch = errors.New("invalid mutation batch")
)

// Mutated is an acknowledged Mutate: the batch's report and the
// generation it published.
type Mutated struct {
	engines.MutationReport
	Gen uint32
}

// Mutate applies one batch of edge mutations to the served graph: the
// maintainer builds the next adjacency epoch, maintains the PR/WCC
// vectors and repairs the degradation sketch (both bit-equal to a full
// recompute on the post-batch graph), and publishes everything
// atomically as the generation it returns. An empty or nil batch is a
// refresh, which republishes and charges nothing. Concurrent queries
// are never dropped. A mutate takes a bounded-queue slot but no token,
// and stays out of the query outcome counters.
func (s *Server) Mutate(ctx context.Context, batch graph.Batch) (Mutated, error) {
	if batch == nil {
		batch = graph.Batch{} // the maintenance marker
	}
	p := &pending{ctx: ctx, mutate: batch, mutRep: &engines.MutationReport{}, resC: make(chan Response, 1)}
	if err := s.admitMutate(p); err != nil {
		return Mutated{}, err
	}
	select {
	case resp := <-p.resC:
		if resp.Status != StatusOK {
			return Mutated{}, fmt.Errorf("mutate failed: %s", resp.Err)
		}
		return Mutated{MutationReport: *p.mutRep, Gen: resp.Gen}, nil
	case <-ctx.Done():
		return Mutated{}, ctx.Err()
	}
}

// admitMutate queues the maintenance entry p or refuses it, in one step
// against Drain like admitQuery.
func (s *Server) admitMutate(p *pending) error {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining.Load() {
		return ErrClosed
	}
	if err := p.mutate.Validate(s.n, s.weighted); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidBatch, err)
	}
	if !s.admit.tryReserve() {
		return fmt.Errorf("%w: mutate shed (queue full)", ErrOverloaded)
	}
	p.seq = s.seq.Add(1)
	s.queue <- p // never blocks: tryReserve bounds the depth by cap(queue)
	return nil
}
