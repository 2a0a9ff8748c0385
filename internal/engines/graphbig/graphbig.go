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
	pushed     parallel.Slab[graph.VID]   // chaotic SSSP: a chunk's pushes
	rank       [2][]float32               // PageRank's single-precision properties
	spare      []graph.VID                // the CDLP or WCC label array not handed out

	// The current call's records, set by each kernel and cleared after.
	pr  prCall
	sp  ssspCall
	lcc lccCall
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
	inst.m.ChargeUniform(inst.inputEdges, 2048, simmachine.Dynamic, costLoadEdge)
	inst.built = true
}

// inRows is the second row source of a sweep over both directions: the
// in-adjacency of a directed graph, nothing when out is symmetric. It
// points at the table, so that making it allocates nothing.
func (inst *Instance) inRows() traverse.Rows {
	if !inst.directed {
		return nil
	}
	return (*inProps)(&inst.vertices)
}

// BFS implements engines.Instance: plain level-synchronous traversal
// with per-vertex visited atomics — the shared step under the levelBFS
// profile.
func (inst *Instance) BFS(root graph.VID, dst *engines.BFSResult) (*engines.BFSResult, error) {
	// The rows point at the table, as inRows does, so that passing them
	// allocates nothing.
	return inst.trav.BFS(inst.m, &inst.vertices, &levelBFS, "graphbig: BFS", inst.n, root, dst)
}

// SSSP implements engines.Instance: frontier-driven Bellman-Ford
// relaxation (System G's "chaotic" parallel relaxation) with CAS-min
// distances.
func (inst *Instance) SSSP(root graph.VID, dst *engines.SSSPResult) (*engines.SSSPResult, error) {
	if !inst.weighted {
		return nil, engines.ErrUnsupported
	}
	n := inst.n
	res := traverse.StartSSSP(dst, root, n)
	if inst.opts.SyncSSSP {
		return inst.ssspSync(res)
	}
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
	sp := &inst.sp
	*sp = ssspCall{vertices: inst.vertices, res: res, relax: inst.trav.Counter(inst.m, 0)}
	inst.active = append(inst.active[:0], root)
	for len(inst.active) > 0 {
		inst.queue.Reset()
		inst.pushed.Reset(inst.m.Workers())
		inst.m.For(len(inst.active), inst.m.Grain(len(inst.active), 32, 1), simmachine.Dynamic, (*chaoticRelax)(&inst.scratch))
		// Chaotic relaxation: the active-set composition is
		// schedule-dependent by design (System G's character); the
		// fixed-point distances are not.
		inst.active = append(inst.active[:0], inst.queue.Slice()...)
	}
	res.Relaxations = sp.relax.Sum()
	*sp = ssspCall{}
	for v := 0; v < n; v++ {
		res.Dist[v] = math.Float64frombits(dist[v])
	}
	return res, nil
}

// ssspCall is what a chaotic SSSP pass's chunks read besides the
// scratch.
type ssspCall struct {
	vertices propertyGraph
	res      *engines.SSSPResult
	relax    *parallel.Counter
}

// chaoticRelax is the chaotic SSSP's pass body, a view of the scratch.
type chaoticRelax scratch

// Chunk relaxes the out-edges of one chunk of the frontier with CAS-min
// distances and pushes each vertex it lowers into the next frontier,
// once per pass.
func (sc *chaoticRelax) Chunk(lo, hi, chunk, worker int, w *simmachine.W) {
	sp, dist, inActive := &sc.sp, sc.dist, sc.inActive
	local := sc.pushed.Take(worker)
	var edges int64
	for _, v := range sc.active[lo:hi] {
		atomic.StoreInt32(&inActive[v], 0)
		dv := math.Float64frombits(atomic.LoadUint64(&dist[v]))
		vp := &sp.vertices[v]
		for i, u := range vp.out {
			edges++
			nd := dv + float64(vp.w[i])
			if parallel.WriteMinFloat64Bits(&dist[u], nd) {
				atomic.StoreInt64(&sp.res.Parent[u], int64(v))
				// The inActive guard bounds the queue: each
				// vertex enters the next frontier once per pass.
				if atomic.CompareAndSwapInt32(&inActive[u], 0, 1) {
					local = append(local, u)
				}
			}
		}
	}
	sc.queue.PushBatch(local)
	// The queue holds the items; Keep's copy is dropped, and the call
	// only sizes every worker's scratch by the largest chunk, whichever
	// worker ran it.
	sc.pushed.Keep(worker, local)
	sp.relax.Add(worker, edges)
	w.Charge(costSSSPEdge.Scale(float64(edges)))
	w.Charge(costPropTouch.Scale(float64(hi - lo)))
}
