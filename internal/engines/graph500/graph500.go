package graph500

import (
	"sync/atomic"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/parallel"
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

// Instance is a loaded Graph500 graph.
type Instance struct {
	eng *Engine
	m   *simmachine.Machine
	el  *graph.EdgeList
	csr *graph.CSR
	// ccsr is the compressed sibling of csr, built only under
	// Engine.Compress; nil selects the raw scan.
	ccsr *graph.CompressedCSR
}

// Load implements engines.Engine.
func (e *Engine) Load(el *graph.EdgeList, m *simmachine.Machine) (engines.Instance, error) {
	if err := el.Validate(); err != nil {
		return nil, err
	}
	return &Instance{eng: e, m: m, el: el}, nil
}

// BuildStructure implements engines.Instance (Kernel 1).
func (inst *Instance) BuildStructure() {
	inst.m.ParallelFor(len(inst.el.Edges), 4096, simmachine.Static, func(lo, hi int, w *simmachine.W) {
		w.Charge(costBuildEdge.Scale(2 * float64(hi-lo)))
	})
	inst.csr = graph.BuildCSR(inst.el, graph.BuildOptions{
		Symmetrize:    !inst.el.Directed,
		DropSelfLoops: true,
		Dedup:         true,
		Sort:          true,
	})
	if inst.eng.Compress {
		inst.m.ParallelFor(int(inst.csr.NumEdges()), 4096, simmachine.Static, func(lo, hi int, w *simmachine.W) {
			w.Charge(costCompressEdge.Scale(float64(hi - lo)))
		})
		inst.ccsr = graph.CompressCSR(inst.csr, 0)
	}
}

func (inst *Instance) ensureBuilt() {
	if inst.csr == nil {
		inst.BuildStructure()
	}
}

// BFS implements engines.Instance (Kernel 2).
func (inst *Instance) BFS(root graph.VID) (*engines.BFSResult, error) {
	inst.ensureBuilt()
	n := inst.csr.NumVertices
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
	// The reference uses static scheduling: chunk the frontier
	// round-robin across threads regardless of degree skew. The 128
	// base is the GrainFixed value; adaptive resolves per level.
	const grain = 128
	for len(frontier) > 0 {
		g := inst.m.Grain(len(frontier), grain, 1)
		queue.Reset(parallel.NumChunks(len(frontier), g))
		claimBuf.Reset(inst.m.Workers())
		exa := parallel.NewCounter(inst.m.Workers())
		cpb := inst.m.Model().DecodeCyclesPerByte
		inst.m.ParallelForChunks(len(frontier), g, simmachine.Static, func(lo, hi, chunk, worker int, w *simmachine.W) {
			local := claimBuf.Take(worker)
			start := len(local)
			var buf []graph.VID
			var edges, claims, decBytes int64
			for _, v := range frontier[lo:hi] {
				adj := inst.csr.Neighbors(v)
				if inst.ccsr != nil {
					buf = inst.ccsr.DecodeNeighbors(v, buf)
					adj = buf
					decBytes += inst.ccsr.EncodedBytes(v)
				}
				for _, u := range adj {
					edges++
					// The reference CASes every sighting of a vertex
					// not finalized before this level; that set — and
					// so the charge — is schedule-independent.
					if d := atomic.LoadInt64(&res.Depth[u]); d != -1 && d != level+1 {
						continue
					}
					claims++
					if parallel.LowerMinInt64(&res.Parent[u], int64(v), engines.NoParent) {
						atomic.StoreInt64(&res.Depth[u], level+1)
						local = append(local, parallel.Claim{V: u, By: v})
					}
				}
			}
			queue.Put(chunk, claimBuf.Give(worker, local, start))
			exa.Add(worker, edges)
			if inst.ccsr != nil {
				w.Charge(costEdgeC.Scale(float64(edges)))
				w.Cycles(cpb * float64(decBytes))
				w.Bytes(float64(decBytes))
			} else {
				w.Charge(costEdge.Scale(float64(edges)))
			}
			w.Charge(costClaim.Scale(float64(claims)))
			w.Cycles(float64(hi-lo) * 6) // dequeue + amortized chunk flush
		})
		examined += exa.Sum()
		// Canonical frontier without sorting: tentative claims drain in
		// chunk order, filtered to the final write-min parents, so both
		// membership and order are schedule-independent.
		frontier = parallel.DrainChunkQueue(queue, frontier[:0], func(c parallel.Claim) (graph.VID, bool) {
			return c.V, res.Parent[c.V] == int64(c.By)
		})
		level++
	}
	res.EdgesExamined = examined
	return res, nil
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
