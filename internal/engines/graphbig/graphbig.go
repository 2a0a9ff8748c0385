package graphbig

import (
	"math"
	"sync/atomic"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/traverse"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/parallel"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// Cost constants: property-graph traversal pays pointer chasing and
// per-vertex lock traffic on every step.
var (
	costLoadEdge  = simmachine.Cost{Cycles: 34, Bytes: 48}
	costBFSEdge   = simmachine.Cost{Cycles: 30, Bytes: 38, Atomics: 1}
	costVisit     = simmachine.Cost{Cycles: 12, Bytes: 20, Atomics: 3}
	costSSSPEdge  = simmachine.Cost{Cycles: 34, Bytes: 44, Atomics: 1}
	costPREdge    = simmachine.Cost{Cycles: 18, Bytes: 24, Atomics: 1}
	costPRVertex  = simmachine.Cost{Cycles: 12, Bytes: 28}
	costCDLPEdge  = simmachine.Cost{Cycles: 30, Bytes: 30}
	costLCCCheck  = simmachine.Cost{Cycles: 14, Bytes: 18}
	costWCCEdge   = simmachine.Cost{Cycles: 12, Bytes: 22}
	costPropTouch = simmachine.Cost{Cycles: 6, Bytes: 12}
)

// System G as the shared steps (internal/engines/traverse) see it.
// levelBFS is plain level-synchronous traversal: a property-lock
// acquisition on every sighting of a vertex not finalized before the
// level, and 4 cycles of frontier-queue traffic per vertex; property
// objects are never compressed. roundRelax is a round-barrier
// Bellman-Ford round: the chaotic variant's per-edge lock traffic, a
// property touch per frontier vertex and per candidate merged. The
// dense kernels are sweeps over the vertex table: PageRank's two
// float64 reductions touch a quarter and a half of a rank property per
// vertex around the per-edge-locked gather; the CDLP vote and the WCC
// hook read every property object along both directions.
var (
	levelBFS = traverse.Profile{
		Edge: costBFSEdge, Claim: costVisit,
		VertexCycles: 4, Grain: 32, Sched: simmachine.Dynamic,
	}
	roundRelax = traverse.RelaxProfile{
		Edge: costSSSPEdge, Vertex: costPropTouch, Merge: costPropTouch,
	}
	prDangling = traverse.SweepProfile{Vertex: costPRVertex.Scale(0.25)}
	prGather   = traverse.SweepProfile{Edge: costPREdge, Vertex: costPRVertex}
	prL1       = traverse.SweepProfile{Vertex: costPRVertex.Scale(0.5)}
	cdlpVote   = traverse.SweepProfile{Edge: costCDLPEdge, Vertex: costPropTouch}
	wccHook    = traverse.SweepProfile{Edge: costWCCEdge}
)

// Decl declares the GraphBIG analogue: all six kernels, the graph read
// and built in one phase. Its one knob is the synchronous round-barrier
// relaxation: each Bellman-Ford round gathers candidate updates against
// a distance snapshot and applies them in chunk order, so parents,
// relaxation counts, frontier composition and modeled durations are
// schedule-independent, where System G's chaotic parallel relaxation is
// part of its character.
var Decl = engines.Decl{
	Name:    "GraphBIG",
	Kernels: []engines.Algorithm{engines.BFS, engines.CDLP, engines.LCC, engines.PageRank, engines.SSSP, engines.WCC},
	Knobs:   engines.Options{SyncSSSP: true},
	New:     func() engines.Instance { return new(Instance) },
}

// vertexProp is the per-vertex property object's adjacency. The table
// is shared by every instance of a graph, so the algorithm properties
// System G attaches to vertices live in each instance's scratch.
type vertexProp struct {
	out []graph.VID
	in  []graph.VID // nil when the graph is undirected (out is symmetric)
	w   []float32   // parallel to out; nil if unweighted
}

// propertyGraph is the vertex table; the shared steps read rows out of
// it in place.
type propertyGraph []vertexProp

func (g propertyGraph) Row(v graph.VID, _ *graph.RowBuf) ([]graph.VID, int64) { return g[v].out, 0 }
func (g propertyGraph) Encoded() bool                                         { return false }
func (g propertyGraph) WeightedRowBuf(v graph.VID, _ *graph.RowBuf) ([]graph.VID, []float32) {
	return g[v].out, g[v].w
}

// inProps is the same table read along in-edges.
type inProps propertyGraph

func (g inProps) Row(v graph.VID, _ *graph.RowBuf) ([]graph.VID, int64) { return g[v].in, 0 }
func (g inProps) Encoded() bool                                         { return false }

// Instance is a GraphBIG property graph on a machine.
type Instance struct {
	opts     engines.Options
	m        *simmachine.Machine
	vertices propertyGraph
	directed bool
	weighted bool
	n        int
	// inputEdges sizes the load charge; built records that it was made.
	inputEdges int
	built      bool
	trav       traverse.State
	scratch
}

// scratch is the kernels' working set, kept between calls and across
// binds so that a warm kernel allocates only its result: made on first
// use (never in Load) and initialized on entry by the kernel that reads
// it. Five n-vectors and the queue (n entries) at most stay resident.
type scratch struct {
	dist       []uint64                   // chaotic SSSP: float64 bits, for CAS-min
	inActive   []int32                    // chaotic SSSP: next-frontier membership
	active     []graph.VID                // either SSSP: the frontier
	nextActive []graph.VID                // synchronous SSSP: its successor
	queue      *parallel.Queue[graph.VID] // chaotic SSSP: the next one, as a bag
	pushed     parallel.Arena[graph.VID]  // chaotic SSSP: a chunk's pushes, per worker
	rank       [2][]float32               // PageRank's single-precision properties
	spare      []graph.VID                // the CDLP or WCC label array not handed out
}

type propertyKind struct{}

// Bind implements engines.Instance. The homogenized graph is
// re-materialized as per-vertex property objects whose rows alias the
// shared arrays; the table is the graph's own (graph.Derive), built by
// the first instance bound to it.
func (inst *Instance) Bind(g *graph.Simple, m *simmachine.Machine, o engines.Options) {
	*inst = Instance{opts: o, m: m, trav: inst.trav, scratch: inst.scratch}
	if g == nil {
		return
	}
	n := g.NumVertices
	inst.directed, inst.weighted, inst.n, inst.inputEdges = g.Directed, g.Weighted, n, g.InputEdges
	inst.vertices = graph.Derive(g, propertyKind{}, 0, func() propertyGraph {
		vs := make(propertyGraph, n)
		for v := range vs {
			vs[v].out, vs[v].w = g.Out.WeightedRow(graph.VID(v))
			if g.Directed {
				vs[v].in = g.In.Neighbors(graph.VID(v))
			}
		}
		return vs
	})
}

// BuildStructure implements engines.Instance: reading and construction
// are one phase, charged once per bind — by LoadSimple (or
// harness.Load), so after a load this is a no-op.
func (inst *Instance) BuildStructure() {
	if inst.built {
		return
	}
	inst.m.FileRead(int64(inst.inputEdges)*engines.BytesPerTextEdge, true)
	inst.m.ParallelFor(inst.inputEdges, 2048, simmachine.Dynamic, func(lo, hi int, w *simmachine.W) {
		w.Charge(costLoadEdge.Scale(float64(hi - lo)))
	})
	inst.built = true
}

// inRows is the second row source of a sweep over both directions: the
// in-adjacency of a directed graph, nothing when out is symmetric.
func (inst *Instance) inRows() traverse.Rows {
	if !inst.directed {
		return nil
	}
	return inProps(inst.vertices)
}

// BFS implements engines.Instance: plain level-synchronous traversal
// with per-vertex visited atomics — the shared step under the levelBFS
// profile.
func (inst *Instance) BFS(root graph.VID) (*engines.BFSResult, error) {
	return inst.trav.BFS(inst.m, inst.vertices, &levelBFS, "graphbig: BFS", inst.n, root)
}

// SSSP implements engines.Instance: frontier-driven Bellman-Ford
// relaxation (System G's "chaotic" parallel relaxation) with CAS-min
// distances.
func (inst *Instance) SSSP(root graph.VID) (*engines.SSSPResult, error) {
	if !inst.weighted {
		return nil, engines.ErrUnsupported
	}
	if inst.opts.SyncSSSP {
		return inst.ssspSync(root)
	}
	n := inst.n
	res := traverse.StartSSSP(nil, root, n)
	inst.dist, inst.inActive = traverse.Resized(inst.dist, n), traverse.Resized(inst.inActive, n)
	dist, inActive := inst.dist, inst.inActive
	inf := math.Float64bits(math.Inf(1))
	for i := range dist {
		dist[i] = inf
	}
	dist[root] = math.Float64bits(0)
	clear(inActive)

	if inst.queue == nil || inst.queue.Cap() < n {
		inst.queue = parallel.NewQueue[graph.VID](n)
	}
	queue, pushed := inst.queue, &inst.pushed
	active := append(inst.active[:0], root)
	relax := inst.trav.Counter(inst.m, 0)
	for len(active) > 0 {
		queue.Reset()
		pushed.Reset(inst.m.Workers())
		inst.m.ParallelForChunks(len(active), inst.m.Grain(len(active), 32, 1), simmachine.Dynamic, func(lo, hi, chunk, worker int, w *simmachine.W) {
			// The queue copies a chunk's pushes out before the chunk
			// ends, so the worker's buffer is rewound for every chunk.
			local := pushed.Take(worker)[:0]
			var edges int64
			for _, v := range active[lo:hi] {
				atomic.StoreInt32(&inActive[v], 0)
				dv := math.Float64frombits(atomic.LoadUint64(&dist[v]))
				vp := &inst.vertices[v]
				for i, u := range vp.out {
					edges++
					nd := dv + float64(vp.w[i])
					if parallel.WriteMinFloat64Bits(&dist[u], nd) {
						atomic.StoreInt64(&res.Parent[u], int64(v))
						// The inActive guard bounds the queue: each
						// vertex enters the next frontier once per pass.
						if atomic.CompareAndSwapInt32(&inActive[u], 0, 1) {
							local = append(local, u)
						}
					}
				}
			}
			queue.PushBatch(local)
			pushed.Give(worker, local, 0)
			relax.Add(worker, edges)
			w.Charge(costSSSPEdge.Scale(float64(edges)))
			w.Charge(costPropTouch.Scale(float64(hi - lo)))
		})
		// Chaotic relaxation: the active-set composition is
		// schedule-dependent by design (System G's character); the
		// fixed-point distances are not.
		active = append(active[:0], queue.Slice()...)
	}
	inst.active = active
	for v := 0; v < n; v++ {
		res.Dist[v] = math.Float64frombits(dist[v])
	}
	res.Relaxations = relax.Sum()
	return res, nil
}
