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

// Decl declares the Graph500 reference analogue: BFS only (Kernel 2),
// with Kernel 1 timed as its own phase. Under Compress Kernel 2 scans
// the delta+varint compressed adjacency: parents, depths and edge
// counts are the raw run's, only the modeled costs move.
var Decl = engines.Decl{
	Name:                 "Graph500",
	Kernels:              []engines.Algorithm{engines.BFS},
	SeparateConstruction: true,
	Knobs:                engines.Options{Compress: true},
	New:                  func() engines.Instance { return new(Instance) },
}

// Instance is a Graph500 graph on a machine.
type Instance struct {
	engines.Unsupported
	m *simmachine.Machine
	// csr is the shared homogenized out-adjacency, read-only;
	// inputEdges sizes Kernel 1's charge.
	csr        *graph.CSR
	inputEdges int
	// rows is what Kernel 2 expands: csr, or under Compress the
	// graph's delta+varint compressed sibling. built records that
	// Kernel 1 was charged.
	rows  traverse.Rows
	built bool
	trav  traverse.State
}

// Bind implements engines.Instance.
func (inst *Instance) Bind(g *graph.Simple, m *simmachine.Machine, o engines.Options) {
	*inst = Instance{m: m, trav: inst.trav}
	if g == nil {
		return
	}
	inst.csr, inst.inputEdges, inst.rows = g.Out, g.InputEdges, g.Out
	if o.Compress {
		inst.rows = g.Compressed(g.Out)
	}
}

// BuildStructure implements engines.Instance (Kernel 1).
func (inst *Instance) BuildStructure() {
	if inst.built {
		return
	}
	inst.m.ChargeUniform(inst.inputEdges, 4096, simmachine.Static, costBuildEdge.Scale(2))
	if inst.rows.Encoded() {
		inst.m.ChargeUniform(int(inst.csr.NumEdges()), 4096, simmachine.Static, costCompressEdge)
	}
	inst.built = true
}

// BFS implements engines.Instance (Kernel 2): level-synchronous
// top-down search, nothing but the shared step under the kernel2
// profile.
func (inst *Instance) BFS(root graph.VID, dst *engines.BFSResult) (*engines.BFSResult, error) {
	inst.BuildStructure()
	return inst.trav.BFS(inst.m, inst.rows, &kernel2, "graph500: BFS", inst.csr.NumVertices, root, dst)
}
