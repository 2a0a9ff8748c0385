package server

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/gap"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// errDeadline is the cancellation cause when a query's modeled budget
// runs out; kernels return it wrapped (e.g. "gap: BFS canceled: ...").
var errDeadline = errors.New("server: deadline budget exhausted")

// Modeled costs of the serving-only paths. Traversal kernels charge
// through their engines; these cover the O(1) lookups and the k-hop
// walk, so every query kind has a nonzero modeled service time.
var (
	costVectorLookup = simmachine.Cost{Cycles: 200, Bytes: 64}
	costSketchProbe  = simmachine.Cost{Cycles: 40, Bytes: 16} // per landmark
	costKHopVertex   = simmachine.Cost{Cycles: 4, Bytes: 8}
	costKHopEdge     = simmachine.Cost{Cycles: 6, Bytes: 10}
)

// executor owns one engine instance bound to one simmachine and
// serves queries one at a time — the Machine is not concurrent-safe,
// so an executor is never shared between in-flight queries. The
// served engine is GAP with synchronous SSSP forced on: the chaotic
// default's modeled durations are schedule-dependent, and serving
// times must be a pure function of query content for the
// deterministic study (and for comparable live latencies).
type executor struct {
	m        *simmachine.Machine
	inst     *gap.Instance
	weighted bool
	// gen is the generation of the published state inst is bound to; 0
	// (the graph it was loaded on) matches none.
	gen uint32

	// Per-query scratch, reused from query to query. run reads one
	// scalar out of a result before it returns, so nothing aliases
	// across queries.
	bfs  engines.BFSResult
	sssp engines.SSSPResult
	hops khopScratch
}

// newExecutor loads the shared homogenized graph into a fresh GAP
// instance on its own machine, and builds nothing: a serving executor
// binds what the maintainer built. The machine keeps no trace: the
// executor only ever reads its clock, and a daemon's trace would grow
// by a Region per region forever.
func newExecutor(g *graph.Simple, threads int, compress bool) *executor {
	m := simmachine.New(simmachine.Haswell72(), threads)
	m.SetTracing(false)
	inst := gap.Decl.New().(*gap.Instance)
	inst.Bind(g, m, engines.Options{SyncSSSP: true, Compress: compress})
	return &executor{m: m, inst: inst, weighted: g.Weighted}
}

// vectors are the precomputed lookup answers.
type vectors struct {
	pr  []float64
	wcc []graph.VID
}

// published is everything a query is answered from, as of one
// generation: the adjacency epoch the traversals run on, the PR/WCC
// vectors and the degradation sketch of exactly that epoch. A value is
// immutable once stored; maintenance builds the next one beside it. gen
// is 1 at start-up and +1 per mutate.
type published struct {
	epoch  gap.Epoch
	vec    vectors
	sketch *Sketch
	gen    uint32
}

// newMaintainer loads g into the executor that owns the mutable state —
// the only instance that is ever mutated, and the holder of the
// incremental PR/WCC baselines — and derives generation 1 from it.
func newMaintainer(g *graph.Simple, threads, landmarks int, compress bool) (*executor, *published, error) {
	e := newExecutor(g, threads, compress)
	e.inst.BuildStructure()
	vec, err := e.computeVectors()
	if err != nil {
		return nil, nil, err
	}
	e.gen = 1
	return e, &published{epoch: e.inst.Epoch(), vec: vec, sketch: BuildSketch(g.Out, landmarks), gen: 1}, nil
}

// computeVectors (re)derives the PR/WCC vectors on this executor's
// instance through the incremental maintainers: the first call records
// a full baseline, later calls re-converge only from the mutations
// applied since — bit-equal to a full recompute either way, but a
// mutate swap never re-pays structure construction. Startup and mutate
// work: charged to the machine like any kernel, but never part of a
// query's budget.
func (e *executor) computeVectors() (vectors, error) {
	pr, err := e.inst.IncrementalPageRank(engines.DefaultPROpts())
	if err != nil {
		return vectors{}, fmt.Errorf("server: pagerank precompute: %w", err)
	}
	wcc, err := e.inst.IncrementalWCC()
	if err != nil {
		return vectors{}, fmt.Errorf("server: wcc precompute: %w", err)
	}
	return vectors{pr: pr.Rank, wcc: wcc.Component}, nil
}

// run serves one query from pub, binding the instance to pub's epoch
// first when it is on another generation — so one query reads one
// generation throughout, whatever is published meanwhile. degraded
// selects the sketch path for degradable ops; ctx (nil in the
// virtual-time simulation) adds live client-cancellation to the
// deadline hook. Panics anywhere below —
// engine kernels included; internal/parallel re-raises worker panics
// on this goroutine — are recovered into a StatusPanic response, so a
// poisoned query costs one response, not the daemon.
func (e *executor) run(ctx context.Context, q Query, budget float64, degraded bool, pub *published) (resp Response) {
	if e.gen != pub.gen {
		e.inst.BindEpoch(pub.epoch)
		e.gen = pub.gen
	}
	resp = q.response(StatusOK, "")
	resp.Gen = pub.gen
	_, start := e.m.Mark()
	defer func() {
		if r := recover(); r != nil {
			resp.Status = StatusPanic
			resp.Err = fmt.Sprintf("recovered panic: %v", r)
		}
		_, end := e.m.Mark()
		resp.ModeledSec = end - start
	}()

	deadline := func() error {
		if budget > 0 && e.m.Elapsed()-start > budget {
			return errDeadline
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		return nil
	}
	e.inst.SetCancel(deadline)
	defer e.inst.SetCancel(nil)

	if degraded && q.degradable(e.weighted) {
		e.m.Serial(func(w *simmachine.W) {
			w.Charge(costSketchProbe.Scale(float64(pub.sketch.lookups() + 1)))
		})
		resp.Degraded = true
		switch q.Op {
		case OpBFS:
			resp.Value = pub.sketch.EstimateHops(q.Source, q.Target)
		case OpSSSP:
			resp.Value = pub.sketch.EstimateDist(q.Source, q.Target)
		}
		return resp
	}

	var err error
	switch q.Op {
	case OpBFS:
		if _, err = e.inst.BFSInto(q.Source, &e.bfs); err == nil {
			resp.Value = float64(e.bfs.Depth[q.Target])
		}
	case OpSSSP:
		if _, err = e.inst.SSSPInto(q.Source, &e.sssp); err == nil {
			if d := e.sssp.Dist[q.Target]; math.IsInf(d, 1) {
				resp.Value = -1
			} else {
				resp.Value = d
			}
		}
	case OpPR:
		e.m.Serial(func(w *simmachine.W) { w.Charge(costVectorLookup) })
		resp.Value = pub.vec.pr[q.Source]
	case OpWCC:
		e.m.Serial(func(w *simmachine.W) { w.Charge(costVectorLookup.Scale(2)) })
		if pub.vec.wcc[q.Source] == pub.vec.wcc[q.Target] {
			resp.Value = 1
		}
	case OpKHop:
		resp.Value, err = e.khop(pub.epoch.Out(), q.Source, q.K, deadline)
	case OpPanic:
		panic("injected fault (op=panic)")
	default:
		err = fmt.Errorf("unknown op %q", q.Op)
	}
	if err != nil {
		if errors.Is(err, errDeadline) || errors.Is(err, context.Canceled) ||
			errors.Is(err, context.DeadlineExceeded) {
			resp.Status = StatusDeadline
		} else {
			resp.Status = StatusError
		}
		resp.Err = err.Error()
	}
	return resp
}

// khopScratch is the k-hop walk's reusable working set: seen[v] ==
// epoch marks v visited by the current query, so starting a query is
// one increment instead of clearing (or allocating) a visited set; row
// holds a row the epoch stores as a delta, merged.
type khopScratch struct {
	seen     []uint32
	epoch    uint32
	frontier []graph.VID
	next     []graph.VID
	row      graph.RowBuf
}

// begin sizes the scratch for n vertices and opens a new epoch,
// re-zeroing seen when the counter wraps into stamps it may still hold.
func (s *khopScratch) begin(n int) {
	if len(s.seen) != n {
		s.seen, s.epoch = make([]uint32, n), 0
	}
	if s.epoch == math.MaxUint32 {
		clear(s.seen)
		s.epoch = 0
	}
	s.epoch++
}

// khop counts vertices within k hops of src with a serial truncated
// BFS on the out-adjacency, charging per vertex and edge touched.
// The deadline hook is polled once per level, matching the engines'
// frontier granularity.
func (e *executor) khop(out *graph.CSR, src graph.VID, k int, deadline func() error) (float64, error) {
	s := &e.hops
	s.begin(out.NumVertices)
	seen, epoch := s.seen, s.epoch
	seen[src] = epoch
	s.frontier = append(s.frontier[:0], src)
	count := 1
	for level := 0; level < k && len(s.frontier) > 0; level++ {
		if err := deadline(); err != nil {
			return 0, fmt.Errorf("khop canceled at level %d: %w", level, err)
		}
		next := s.next[:0]
		var edges int
		for _, v := range s.frontier {
			row, _ := out.Row(v, &s.row)
			for _, u := range row {
				edges++
				if seen[u] != epoch {
					seen[u] = epoch
					next = append(next, u)
					count++
				}
			}
		}
		e.m.Serial(func(w *simmachine.W) {
			w.Charge(costKHopVertex.Scale(float64(len(s.frontier))))
			w.Charge(costKHopEdge.Scale(float64(edges)))
		})
		s.frontier, s.next = next, s.frontier
	}
	return float64(count), nil
}
