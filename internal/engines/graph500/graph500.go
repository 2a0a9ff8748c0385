package graph500

import (
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/traverse"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// Cost constants: the reference's per-edge loop is lean but touches
// 64-bit parents and a visited bitmap, and CASes every unvisited
// target.
var (
	// The reference's inner loop is a tight bitmap test per edge.
	costEdge      = simmachine.Cost{Cycles: 5, Bytes: 9}
	costClaim     = simmachine.Cost{Atomics: 1, Bytes: 8}
	costBuildEdge = simmachine.Cost{Cycles: 6, Bytes: 20}
	// Compressed variant: the raw 4 B/edge neighbor read is replaced
	// by the actual compressed bytes, charged separately along with
	// Model.DecodeCyclesPerByte per byte.
	costEdgeC = simmachine.Cost{Cycles: 5, Bytes: 5}
	// costCompressEdge is the Kernel-1 surcharge of the delta+varint
	// encode pass.
	costCompressEdge = simmachine.Cost{Cycles: 8, Bytes: 10}
)

// kernel2 is the reference's search as the shared top-down step
// (internal/engines/traverse) sees it. The reference uses static
// scheduling — the frontier chunked round-robin across threads
// regardless of degree skew — and CASes every sighting of a vertex not
// finalized before the level; 6 cycles per frontier vertex cover the
// dequeue and the amortized chunk flush.
var kernel2 = traverse.Profile{
	Edge: costEdge, EdgeCompressed: costEdgeC, Claim: costClaim,
	VertexCycles: 6, Grain: 128, Sched: simmachine.Static,
}

// Engine is the Graph500 reference analogue.
type Engine struct {
	// Compress switches Kernel 2's neighbor scan to the delta+varint
	// compressed adjacency (Spec.Compress). Parents, depths, and edge
	// counts are identical to the raw run; only the modeled costs move.
	Compress bool
}

// New returns the engine.
func New() *Engine { return &Engine{} }

// SetCompress implements engines.CompressSetter.
func (e *Engine) SetCompress(on bool) { e.Compress = on }

// Name implements engines.Engine.
func (e *Engine) Name() string { return "Graph500" }

// SeparateConstruction implements engines.Engine: Kernel 1 is timed
// separately from the search kernel.
func (e *Engine) SeparateConstruction() bool { return true }

// Has implements engines.Engine: the Graph500 is BFS-only.
func (e *Engine) Has(alg engines.Algorithm) bool { return alg == engines.BFS }

// Instance is a Graph500 graph on a machine.
type Instance struct {
	eng *Engine
	m   *simmachine.Machine
	// csr is the shared homogenized out-adjacency, read-only;
	// inputEdges sizes Kernel 1's charge.
	csr        *graph.CSR
	inputEdges int
	// rows is what Kernel 2 expands: csr, or under Engine.Compress the
	// graph's delta+varint compressed sibling. built records that
	// Kernel 1 was charged.
	rows  traverse.Rows
	built bool
	trav  traverse.State
}

// LoadSimple implements engines.Engine: a new instance, bound.
func (e *Engine) LoadSimple(g *graph.Simple, m *simmachine.Machine) (engines.Instance, error) {
	inst := &Instance{eng: e}
	inst.Bind(g, m)
	return inst, nil
}

// Bind implements engines.Instance.
func (inst *Instance) Bind(g *graph.Simple, m *simmachine.Machine) {
	*inst = Instance{eng: inst.eng, m: m, trav: inst.trav}
	if g == nil {
		return
	}
	inst.csr, inst.inputEdges, inst.rows = g.Out, g.InputEdges, g.Out
	if inst.eng.Compress {
		inst.rows = g.Compressed(g.Out)
	}
}

// Load implements engines.Engine.
func (e *Engine) Load(el *graph.EdgeList, m *simmachine.Machine) (engines.Instance, error) {
	return engines.LoadEdgeList(e, el, m)
}

// BuildStructure implements engines.Instance (Kernel 1).
func (inst *Instance) BuildStructure() {
	if inst.built {
		return
	}
	inst.m.ParallelFor(inst.inputEdges, 4096, simmachine.Static, func(lo, hi int, w *simmachine.W) {
		w.Charge(costBuildEdge.Scale(2 * float64(hi-lo)))
	})
	if inst.rows.Encoded() {
		inst.m.ParallelFor(int(inst.csr.NumEdges()), 4096, simmachine.Static, func(lo, hi int, w *simmachine.W) {
			w.Charge(costCompressEdge.Scale(float64(hi - lo)))
		})
	}
	inst.built = true
}

// BFS implements engines.Instance (Kernel 2): level-synchronous
// top-down search, nothing but the shared step under the kernel2
// profile.
func (inst *Instance) BFS(root graph.VID) (*engines.BFSResult, error) {
	inst.BuildStructure()
	return inst.trav.BFS(inst.m, inst.rows, &kernel2, "graph500: BFS", inst.csr.NumVertices, root)
}

// SSSP implements engines.Instance; not part of the benchmark.
func (inst *Instance) SSSP(graph.VID) (*engines.SSSPResult, error) {
	return nil, engines.ErrUnsupported
}

// PageRank implements engines.Instance; not part of the benchmark.
func (inst *Instance) PageRank(engines.PROpts) (*engines.PRResult, error) {
	return nil, engines.ErrUnsupported
}

// CDLP implements engines.Instance; not part of the benchmark.
func (inst *Instance) CDLP(int) (*engines.CDLPResult, error) {
	return nil, engines.ErrUnsupported
}

// LCC implements engines.Instance; not part of the benchmark.
func (inst *Instance) LCC() (*engines.LCCResult, error) {
	return nil, engines.ErrUnsupported
}

// WCC implements engines.Instance; not part of the benchmark.
func (inst *Instance) WCC() (*engines.WCCResult, error) {
	return nil, engines.ErrUnsupported
}
