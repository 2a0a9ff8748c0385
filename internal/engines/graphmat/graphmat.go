package graphmat

import (
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/traverse"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// Cost constants: SpMV bookkeeping (row headers, column indices,
// semiring dispatch) per scanned nonzero, plus dense vector sweeps.
var (
	costRowHeader = simmachine.Cost{Cycles: 4, Bytes: 8}
	costScanNZ    = simmachine.Cost{Cycles: 11, Bytes: 12}
	costProcessNZ = simmachine.Cost{Cycles: 8, Bytes: 8}
	costVecEntry  = simmachine.Cost{Cycles: 4, Bytes: 10}
	costBuildEdge = simmachine.Cost{Cycles: 14, Bytes: 30}
)

// The regions GraphMat runs as shared dense sweeps
// (internal/engines/traverse): spmvPass is one generalized SpMV over the
// stored rows — a scan per stored nonzero, a semiring PROCESS per unit
// of Work, a header per row; vecPass is one pass over a length-n dense
// vector (PageRank's dangling reduction and its ∞-norm test); lccLinks
// is the link count, a matrix scan per merge comparison.
var (
	spmvPass = traverse.SweepProfile{Edge: costScanNZ, Work: costProcessNZ, Vertex: costRowHeader}
	vecPass  = traverse.SweepProfile{Vertex: costVecEntry}
	lccLinks = traverse.SweepProfile{Work: costScanNZ, Vertex: costVecEntry}
)

// Decl declares the GraphMat analogue: its Graphalytics port covers all
// six kernels, and matrix construction is a distinct phase (the paper's
// GraphMat log excerpt times it separately from the file read). It has
// no knobs.
var Decl = engines.Decl{
	Name:                 "GraphMat",
	Kernels:              []engines.Algorithm{engines.BFS, engines.CDLP, engines.LCC, engines.PageRank, engines.SSSP, engines.WCC},
	SeparateConstruction: true,
	New:                  func() engines.Instance { return new(Instance) },
}

// storedRows lists, ascending, the vertices of c with at least one
// edge: the rows a doubly-compressed (DCSR) matrix stores. Its column
// and value arrays are c's own Adj and Weights, so the list is all the
// matrix adds to the shared CSR.
func storedRows(c *graph.CSR) []graph.VID {
	nonEmpty := 0
	for v := 0; v < c.NumVertices; v++ {
		if c.Offsets[v] != c.Offsets[v+1] {
			nonEmpty++
		}
	}
	rows := make([]graph.VID, 0, nonEmpty)
	for v := 0; v < c.NumVertices; v++ {
		if c.Offsets[v] != c.Offsets[v+1] {
			rows = append(rows, graph.VID(v))
		}
	}
	return rows
}

type rowsKind struct{ rows *graph.CSR }

// Instance is a GraphMat matrix on a machine.
type Instance struct {
	m *simmachine.Machine
	// out and in are the shared homogenized rows, read-only: in is the
	// gather (SpMV) direction, out itself when the graph is undirected.
	// Their sorted rows serve LCC's edge queries. inputEdges sizes the
	// construction charge; built records that BuildStructure ran.
	out, in    *graph.CSR
	inputEdges int
	built      bool

	n        int
	directed bool
	weighted bool
	// inRows and outRows are the stored rows of in and out, the graph's
	// own (one list when undirected).
	inRows, outRows []graph.VID
	trav            traverse.State
	scratch
}

// scratch is the kernels' working set, kept between calls and across
// binds so that a warm kernel allocates only its result: made on first
// use (never in BuildStructure) and initialized on entry by the kernel
// that reads it, since kernels share it. Three single-precision
// n-vectors and one label vector at most stay resident.
type scratch struct {
	vec   [3][]float32 // SSSP's cur/nxt; PageRank's rank/next/contrib
	spare []graph.VID  // the CDLP / WCC label array not handed out

	// The current call's records, set by each kernel and cleared after.
	sp   spmvCall
	bfs  bfsCall
	sssp ssspCall
	pr   prCall
	cdlp cdlpCall
	wcc  wccCall
}

// Bind implements engines.Instance. The stored-row lists are the
// graph's own (graph.Derive), built by the first instance bound to it.
func (inst *Instance) Bind(g *graph.Simple, m *simmachine.Machine, _ engines.Options) {
	*inst = Instance{m: m, trav: inst.trav, scratch: inst.scratch}
	if g == nil {
		return
	}
	stored := func(c *graph.CSR) []graph.VID {
		return graph.Derive(g, rowsKind{c}, 0, func() []graph.VID { return storedRows(c) })
	}
	inst.out, inst.in, inst.inputEdges = g.Out, g.Out, g.InputEdges
	inst.n, inst.directed, inst.weighted = g.NumVertices, g.Directed, g.Weighted
	inst.outRows = stored(g.Out)
	inst.inRows = inst.outRows
	if g.Directed {
		inst.in = g.In
		inst.inRows = stored(g.In)
	}
}

// BuildStructure implements engines.Instance: the charged build of the
// forward and transposed compressed matrices (GraphMat's partitioned
// DCSC build), whichever load of the graph made them. Every kernel
// calls it first: the harness always builds, library users might not.
func (inst *Instance) BuildStructure() {
	if inst.built {
		return
	}
	// Charge: two full passes (forward + transpose compression).
	passes := 2.0
	if !inst.directed {
		passes = 1.5
	}
	inst.m.ChargeUniform(inst.inputEdges, 4096, simmachine.Dynamic, costBuildEdge.Scale(passes))
	inst.built = true
}
