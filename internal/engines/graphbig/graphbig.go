package graphbig

import (
	"math"
	"sync/atomic"

	"github.com/hpcl-repro/epg/internal/engines"
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

// Engine is the GraphBIG analogue.
type Engine struct {
	// SyncSSSP selects the synchronous round-barrier relaxation
	// variant: each Bellman-Ford round gathers candidate updates
	// against a distance snapshot and applies them in chunk order, so
	// parents, relaxation counts, frontier composition, and modeled
	// durations are schedule-independent. Off by default — System G's
	// chaotic parallel relaxation is part of its character.
	SyncSSSP bool
}

// New returns the engine.
func New() *Engine { return &Engine{} }

// SetSyncSSSP implements engines.SyncSSSPSetter.
func (e *Engine) SetSyncSSSP(on bool) { e.SyncSSSP = on }

// Name implements engines.Engine.
func (e *Engine) Name() string { return "GraphBIG" }

// SeparateConstruction implements engines.Engine: GraphBIG reads the
// file and builds the graph simultaneously.
func (e *Engine) SeparateConstruction() bool { return false }

// Has implements engines.Engine.
func (e *Engine) Has(alg engines.Algorithm) bool {
	switch alg {
	case engines.BFS, engines.SSSP, engines.PageRank,
		engines.CDLP, engines.LCC, engines.WCC:
		return true
	}
	return false
}

// vertexProp is the per-vertex property object: adjacency plus the
// mutable algorithm properties System G attaches to vertices.
type vertexProp struct {
	out []graph.VID
	in  []graph.VID // nil when the graph is undirected (out is symmetric)
	w   []float32   // parallel to out; nil if unweighted
}

// Instance is a loaded GraphBIG property graph.
type Instance struct {
	eng      *Engine
	m        *simmachine.Machine
	vertices []vertexProp
	directed bool
	weighted bool
	n        int
}

// Load implements engines.Engine: reading and construction are one
// phase, charged here.
func (e *Engine) Load(el *graph.EdgeList, m *simmachine.Machine) (engines.Instance, error) {
	if err := el.Validate(); err != nil {
		return nil, err
	}
	// Homogenized simple graph, then re-materialized as per-vertex
	// property objects.
	csr := graph.BuildCSR(el, graph.BuildOptions{
		Symmetrize:    !el.Directed,
		DropSelfLoops: true,
		Dedup:         true,
		Sort:          true,
	})
	n := csr.NumVertices
	inst := &Instance{eng: e, m: m, directed: el.Directed, weighted: el.Weighted, n: n}
	inst.vertices = make([]vertexProp, n)
	for v := 0; v < n; v++ {
		inst.vertices[v].out = csr.Neighbors(graph.VID(v))
		if el.Weighted {
			inst.vertices[v].w = csr.NeighborWeights(graph.VID(v))
		}
	}
	if el.Directed {
		tr := graph.Transpose(csr, 0)
		tr.SortAdjacency()
		for v := 0; v < n; v++ {
			inst.vertices[v].in = tr.Neighbors(graph.VID(v))
		}
	}
	// Charge the combined read+build pass.
	m.FileRead(int64(len(el.Edges))*16, true)
	m.ParallelFor(len(el.Edges), 2048, simmachine.Dynamic, func(lo, hi int, w *simmachine.W) {
		w.Charge(costLoadEdge.Scale(float64(hi - lo)))
	})
	return inst, nil
}

// BuildStructure implements engines.Instance: a no-op, construction
// happened during Load.
func (inst *Instance) BuildStructure() {}

// inNeighbors returns the in-adjacency (equal to out for undirected).
func (inst *Instance) inNeighbors(v graph.VID) []graph.VID {
	if !inst.directed {
		return inst.vertices[v].out
	}
	return inst.vertices[v].in
}

// BFS implements engines.Instance: plain level-synchronous traversal
// with per-vertex visited atomics.
func (inst *Instance) BFS(root graph.VID) (*engines.BFSResult, error) {
	n := inst.n
	res := &engines.BFSResult{
		Root:   root,
		Parent: make([]int64, n),
		Depth:  make([]int64, n),
	}
	for i := range res.Parent {
		res.Parent[i] = engines.NoParent
		res.Depth[i] = -1
	}
	res.Parent[root] = int64(root)
	res.Depth[root] = 0

	queue := parallel.NewChunkQueue[parallel.Claim]()
	var claimBuf parallel.Arena[parallel.Claim]
	frontier := []graph.VID{root}
	level := int64(0)
	var examined int64
	const grain = 32 // GrainFixed base; adaptive resolves per level
	for len(frontier) > 0 {
		g := inst.m.Grain(len(frontier), grain, 1)
		queue.Reset(parallel.NumChunks(len(frontier), g))
		claimBuf.Reset(inst.m.Workers())
		exa := parallel.NewCounter(inst.m.Workers())
		inst.m.ParallelForChunks(len(frontier), g, simmachine.Dynamic, func(lo, hi, chunk, worker int, w *simmachine.W) {
			local := claimBuf.Take(worker)
			start := len(local)
			var edges, visits int64
			for _, v := range frontier[lo:hi] {
				for _, u := range inst.vertices[v].out {
					edges++
					// Property-lock acquisitions hit every sighting of
					// a vertex not finalized before this level — a set
					// fixed by earlier levels, so the charge is
					// schedule-independent.
					if d := atomic.LoadInt64(&res.Depth[u]); d != -1 && d != level+1 {
						continue
					}
					visits++
					if parallel.LowerMinInt64(&res.Parent[u], int64(v), engines.NoParent) {
						atomic.StoreInt64(&res.Depth[u], level+1)
						local = append(local, parallel.Claim{V: u, By: v})
					}
				}
			}
			queue.Put(chunk, claimBuf.Give(worker, local, start))
			exa.Add(worker, edges)
			w.Charge(costBFSEdge.Scale(float64(edges)))
			w.Charge(costVisit.Scale(float64(visits)))
			w.Cycles(float64(hi-lo) * 4) // frontier queue traffic
		})
		examined += exa.Sum()
		// Sort-free canonical frontier: drain tentative claims in chunk
		// order, keeping only the final write-min winners.
		frontier = parallel.DrainChunkQueue(queue, frontier[:0], func(c parallel.Claim) (graph.VID, bool) {
			return c.V, res.Parent[c.V] == int64(c.By)
		})
		level++
	}
	res.EdgesExamined = examined
	return res, nil
}

// SSSP implements engines.Instance: frontier-driven Bellman-Ford
// relaxation (System G's "chaotic" parallel relaxation) with CAS-min
// distances.
func (inst *Instance) SSSP(root graph.VID) (*engines.SSSPResult, error) {
	if !inst.weighted {
		return nil, engines.ErrUnsupported
	}
	if inst.eng.SyncSSSP {
		return inst.ssspSync(root)
	}
	n := inst.n
	res := &engines.SSSPResult{
		Root:   root,
		Dist:   make([]float64, n),
		Parent: make([]int64, n),
	}
	dist := make([]uint64, n)
	inf := math.Float64bits(math.Inf(1))
	for i := range dist {
		dist[i] = inf
		res.Parent[i] = engines.NoParent
	}
	dist[root] = math.Float64bits(0)
	res.Parent[root] = int64(root)

	queue := parallel.NewQueue[graph.VID](n)
	active := []graph.VID{root}
	inActive := make([]int32, n)
	relax := parallel.NewCounter(inst.m.Workers())
	for len(active) > 0 {
		queue.Reset()
		inst.m.ParallelForChunks(len(active), inst.m.Grain(len(active), 32, 1), simmachine.Dynamic, func(lo, hi, chunk, worker int, w *simmachine.W) {
			var local []graph.VID
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
			relax.Add(worker, edges)
			w.Charge(costSSSPEdge.Scale(float64(edges)))
			w.Charge(costPropTouch.Scale(float64(hi - lo)))
		})
		// Chaotic relaxation: the active-set composition is
		// schedule-dependent by design (System G's character); the
		// fixed-point distances are not.
		active = append(active[:0], queue.Slice()...)
	}
	for v := 0; v < n; v++ {
		res.Dist[v] = math.Float64frombits(dist[v])
	}
	res.Relaxations = relax.Sum()
	return res, nil
}
