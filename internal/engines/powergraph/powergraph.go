package powergraph

import (
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/traverse"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/parallel"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// Cost constants: GAS edge processing is an order of magnitude
// heavier than a tight CSR loop — each gather goes through the vertex
// program dispatch, edge iterator, and accumulator locking.
var (
	costGatherEdge  = simmachine.Cost{Cycles: 55, Bytes: 44, Atomics: 1}
	costScanEdge    = simmachine.Cost{Cycles: 4, Bytes: 6}
	costApplyVertex = simmachine.Cost{Cycles: 40, Bytes: 40}
	costSyncReplica = simmachine.Cost{Cycles: 10, Bytes: 28}
	costLoadEdge    = simmachine.Cost{Cycles: 45, Bytes: 56}
	costLCCCheck    = simmachine.Cost{Cycles: 18, Bytes: 20}
)

// The regions PowerGraph runs as shared dense sweeps
// (internal/engines/traverse). PageRank's contribution pass and its
// ghost-sync apply (a replica fold per slot, reported as Work) stand
// around the engine's own gatherSweep; a CDLP label message costs 0.6
// of a gather; LCC pays a GAS-grade cost per merge comparison.
var (
	prContrib = traverse.SweepProfile{Vertex: simmachine.Cost{Cycles: 4, Bytes: 24}}
	prApply   = traverse.SweepProfile{Work: costSyncReplica, Vertex: costApplyVertex}
	cdlpVote  = traverse.SweepProfile{Edge: costGatherEdge, EdgeShare: 0.6, Vertex: costApplyVertex}
	lccLinks  = traverse.SweepProfile{Work: costLCCCheck, Vertex: costApplyVertex}
)

// maxShards bounds the vertex-cut width (replica masks are one word);
// the shared partitioner enforces the same bound.
const maxShards = graph.MaxVertexCutShards

// Decl declares the PowerGraph analogue: the toolkits cover everything
// here except BFS, and PowerGraph ingests and partitions while reading
// the input. It has no knobs.
var Decl = engines.Decl{
	Name:    "PowerGraph",
	Kernels: []engines.Algorithm{engines.CDLP, engines.LCC, engines.PageRank, engines.SSSP, engines.WCC},
	New:     func() engines.Instance { return new(Instance) },
}

type shardEdge struct {
	src, dst graph.VID
	w        float32
}

// partition is the vertex cut of one graph at one shard count: its
// replica masks and TotalRep (the ghost sync volume), the shards, and
// the per-vertex replica-slot prefix (see accum.go). It is built once
// per (graph, shard count) and shared, read-only, by every instance
// loaded at that count.
type partition struct {
	*graph.VertexCutStats
	shards  [][]shardEdge
	slotOff []int64
}

type partitionKind struct{}

// Instance is a partitioned PowerGraph graph on a machine.
type Instance struct {
	engines.Unsupported
	m        *simmachine.Machine
	n        int
	directed bool
	weighted bool
	*partition

	// Homogenized adjacency retained for PageRank's out-degrees and the
	// neighborhood kernels (CDLP/LCC); in is nil for an undirected graph
	// (out is symmetric). inputEdges sizes the load charge; built records
	// that it was made.
	out        *graph.CSR
	in         *graph.CSR
	inputEdges int
	built      bool
	trav       traverse.State
	scratch
}

// scratch is the kernels' working set, kept between calls and across
// binds so that a warm kernel allocates only its result: made on first
// use (never in Load) and initialized on entry by the kernel that reads
// it, since kernels share it and an abandoned call leaves it dirty. At
// most one replica-slot array of each element type and two n-vectors
// stay resident.
type scratch struct {
	accF    []float64   // per replica slot: SSSP distances, PageRank partial sums
	accP    []int64     // per replica slot: SSSP parents
	accC    []uint32    // per replica slot: WCC labels
	contrib []float64   // per vertex: PageRank
	spare   []graph.VID // per vertex: the CDLP label array not handed out

	// The current call's records, set by each kernel and cleared after.
	gather gatherCall
	sssp   ssspCall
	pr     prCall
	wcc    wccCall
}

// Bind implements engines.Instance. The greedy vertex cut is the graph's
// own at m's shard count (graph.Derive): only the first instance bound at
// a count builds it.
func (inst *Instance) Bind(g *graph.Simple, m *simmachine.Machine, _ engines.Options) {
	*inst = Instance{m: m, trav: inst.trav, scratch: inst.scratch}
	if g == nil {
		return
	}
	p := min(max(m.Threads(), 1), maxShards)
	inst.n, inst.directed, inst.weighted = g.NumVertices, g.Directed, g.Weighted
	inst.partition = graph.Derive(g, partitionKind{}, p, func() *partition { return cut(g.Out, p) })
	inst.out, inst.in, inst.inputEdges = g.Out, g.In, g.InputEdges
}

// cut partitions the deduplicated directed adjacency (the engine's true
// edge set) into p shards with the shared greedy streaming vertex-cut —
// the same machinery the modeled cluster's 2D partitioner uses. The cut
// records each edge's shard; the shards are then cut out of one array
// by the final loads and filled in the same stream order.
func cut(out *graph.CSR, p int) *partition {
	shardOf := make([]uint8, out.NumEdges())
	vc := graph.GreedyVertexCut(out, p, shardOf)
	edges := make([]shardEdge, out.NumEdges())
	pt := &partition{VertexCutStats: vc, shards: make([][]shardEdge, p)}
	for s, load := range vc.Loads {
		pt.shards[s], edges = edges[:0:load], edges[load:]
	}
	for v := 0; v < out.NumVertices; v++ {
		for k := out.Offsets[v]; k < out.Offsets[v+1]; k++ {
			var w float32
			if out.Weights != nil {
				w = out.Weights[k]
			}
			s := shardOf[k]
			pt.shards[s] = append(pt.shards[s], shardEdge{graph.VID(v), out.Adj[k], w})
		}
	}
	pt.buildSlots()
	return pt
}

// BuildStructure implements engines.Instance: reading, homogenizing and
// partitioning are one phase, charged once per bind — by LoadSimple (or
// harness.Load), so after a load this is a no-op.
func (inst *Instance) BuildStructure() {
	if inst.built {
		return
	}
	inst.m.FileRead(int64(inst.inputEdges)*engines.BytesPerTextEdge, true)
	inst.m.ChargeUniform(int(inst.out.NumEdges()), 2048, simmachine.Dynamic, costLoadEdge)
	inst.built = true
}

// syncGhosts charges one ghost-exchange round (every replica's state
// shipped to its master and back).
func (inst *Instance) syncGhosts() {
	inst.m.ChargeUniform(int(inst.TotalRep), 4096, simmachine.Dynamic, costSyncReplica)
}

// gatherBody is a gather phase's per-edge body, a method of the
// superstep's record: gather adds edge e to shard s's replica slots.
type gatherBody interface {
	gather(s int, e shardEdge)
}

// gatherSweep runs one GAS gather phase: every shard scans its local
// edges; body is invoked with the shard ID for edges whose source is
// active (a bitmap frontier; nil means all-active), and accumulates
// into that shard's replica slots (shard-local writes: no atomics, see
// accum.go). The scan cost covers the engine's per-edge dispatch even
// for inactive edges. It returns the processed edge count
// (deterministic: the active set is fixed before the sweep).
func (inst *Instance) gatherSweep(active *parallel.Bitmap, body gatherBody) (total int64) {
	gc := &inst.gather
	gc.processed = traverse.Resized(gc.processed, len(inst.shards))
	clear(gc.processed)
	gc.shards, gc.active, gc.body = inst.shards, active, body
	inst.m.ForEachThread(gc)
	gc.shards, gc.active, gc.body = nil, nil, nil
	for _, p := range gc.processed {
		total += p
	}
	return total
}

// gatherCall is what a gather phase's threads read; the per-shard
// processed counts are kept between calls.
type gatherCall struct {
	shards    [][]shardEdge
	active    *parallel.Bitmap
	body      gatherBody
	processed []int64
}

// Chunk is virtual thread tid's share of a gather phase: the edges of
// shard tid, when there is one.
func (gc *gatherCall) Chunk(_, _, tid, _ int, w *simmachine.W) {
	if tid >= len(gc.shards) {
		return
	}
	active, body := gc.active, gc.body
	var scanned, processed int64
	for _, e := range gc.shards[tid] {
		scanned++
		if active == nil || active.Test(int(e.src)) {
			processed++
			body.gather(tid, e)
		}
	}
	gc.processed[tid] = processed
	w.Charge(costScanEdge.Scale(float64(scanned)))
	w.Charge(costGatherEdge.Scale(float64(processed)))
}
