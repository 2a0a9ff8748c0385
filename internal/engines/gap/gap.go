package gap

import (
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/traverse"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/parallel"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// Tunables exposed by the real suite.
const (
	// DefaultAlpha and DefaultBeta are the direction-optimizing BFS
	// switching parameters; the paper uses the defaults.
	DefaultAlpha = 15
	DefaultBeta  = 18
	// DefaultDelta is the delta-stepping bucket width for weights
	// uniform in (0,1].
	DefaultDelta = 0.25
)

// Cost constants (per operation) charged to the machine model. GAP is
// the leanest implementation in the study: tight loops over plain
// arrays with float64 scores.
var (
	costTopDownEdge  = simmachine.Cost{Cycles: 6, Bytes: 10}
	costBottomUpEdge = simmachine.Cost{Cycles: 4, Bytes: 8}
	costClaim        = simmachine.Cost{Atomics: 1}
	costRelax        = simmachine.Cost{Cycles: 9, Bytes: 14}
	costBucketOp     = simmachine.Cost{Cycles: 6, Bytes: 8}
	costPREdge       = simmachine.Cost{Cycles: 3, Bytes: 12}
	costPRVertex     = simmachine.Cost{Cycles: 6, Bytes: 24}
	costCCEdge       = simmachine.Cost{Cycles: 4, Bytes: 10}
	// PageRank's two vector passes, per vertex: the contribution and
	// dangling pass, and the L1 pass.
	costPRContrib = simmachine.Cost{Cycles: 3, Bytes: 16}
	costPRL1      = simmachine.Cost{Cycles: 4, Bytes: 16}
	costBuildEdge = simmachine.Cost{Cycles: 5, Bytes: 18}
	// Compressed-adjacency variants of the traversal edge costs: the
	// raw 4 B/edge neighbor-ID read is stripped out, because under
	// Spec.Compress the kernels charge the actual compressed bytes
	// consumed (plus Model.DecodeCyclesPerByte per byte) instead.
	costTopDownEdgeC  = simmachine.Cost{Cycles: 6, Bytes: 6}
	costBottomUpEdgeC = simmachine.Cost{Cycles: 4, Bytes: 4}
	costPREdgeC       = simmachine.Cost{Cycles: 3, Bytes: 8}
	// costCompressEdge is the Kernel-1 surcharge of the delta+varint
	// encode pass: re-read each sorted neighbor, compute the gap, emit
	// ~1-2 bytes.
	costCompressEdge = simmachine.Cost{Cycles: 8, Bytes: 10}
	// Frontier-machinery costs: the sliding queue's flush (per kept
	// vertex), bitmap word sweeps (clear/scan, per 64-bit word), and
	// bitmap inserts at the direction switch (per frontier vertex).
	costQueueDrain   = simmachine.Cost{Cycles: 3, Bytes: 8}
	costBitmapWord   = simmachine.Cost{Cycles: 1, Bytes: 8}
	costBitmapInsert = simmachine.Cost{Cycles: 2, Bytes: 8}
)

// GAP as the shared steps (internal/engines/traverse) see it. topDown
// is the top-down half of the direction-optimizing BFS: 6 cycles per
// frontier vertex for the sliding queue's pop and amortized flush.
// syncRelax is a bucket-barrier delta-stepping pass: a bucket op per
// candidate gathered and per candidate merged, an atomic per win. The
// three PageRank regions are dense sweeps: two plain vector passes
// around the pull along in-rows. ccHook is the min-label sweep with 2
// cycles per vertex for the own-label compare; ccJump the
// pointer-jumping pass that follows it.
var (
	topDown = traverse.Profile{
		Edge: costTopDownEdge, EdgeCompressed: costTopDownEdgeC, Claim: costClaim,
		VertexCycles: 6, Grain: bfsTopDownGrain, Sched: simmachine.Dynamic,
	}
	syncRelax = traverse.RelaxProfile{
		Edge: costRelax, Cand: costBucketOp,
		Win: costClaim, Merge: costBucketOp,
	}
	prContrib = traverse.SweepProfile{Vertex: costPRContrib}
	prPull    = traverse.SweepProfile{Edge: costPREdge, EdgeCompressed: costPREdgeC, Vertex: costPRVertex}
	prL1      = traverse.SweepProfile{Vertex: costPRL1}
	ccHook    = traverse.SweepProfile{Edge: costCCEdge, Vertex: simmachine.Cost{Cycles: 2}}
	ccJump    = traverse.SweepProfile{Vertex: simmachine.Cost{Cycles: 6, Bytes: 12}}
)

// Decl declares the GAP Benchmark Suite analogue. The suite provides
// BFS, SSSP, PR and CC (reported as WCC here); it has no CDLP or LCC
// reference. It builds its CSR in a distinct, timed phase, and it is
// the one engine with every knob: the synchronous bucket-barrier
// delta-stepping (each relaxation pass gathers candidate updates against
// a distance snapshot and applies them in chunk order, where the real
// suite's CAS races are part of its character), the compressed row
// source of BFS and PageRank (SSSP and WCC keep the raw CSR: the weight
// stream is not compressed), and the streaming phase.
var Decl = engines.Decl{
	Name:                 "GAP",
	Kernels:              []engines.Algorithm{engines.BFS, engines.PageRank, engines.SSSP, engines.WCC},
	SeparateConstruction: true,
	Knobs:                engines.Options{SyncSSSP: true, Compress: true, Mutations: true},
	New:                  func() engines.Instance { return &Instance{Params: DefaultParams} },
}

// Params are the suite's tunables, which an Instance takes from
// DefaultParams and tests set: the direction-optimizing BFS switch
// (Alpha <= 0 never goes bottom-up) and the delta-stepping bucket width
// (<= 0 means DefaultDelta).
type Params struct {
	Alpha int
	Beta  int
	Delta float64
}

// DefaultParams is the paper's untuned parameterization.
var DefaultParams = Params{Alpha: DefaultAlpha, Beta: DefaultBeta, Delta: DefaultDelta}

// Instance is a loaded GAP graph.
type Instance struct {
	engines.Unsupported
	// Params survive Bind; opts are the knobs of the last one.
	Params
	opts engines.Options
	m    *simmachine.Machine

	// g is the graph the instance runs on: the shared homogenized graph
	// it was bound to, read-only, until Mutate moves it to the graph
	// the batch made (graph.Simple.Apply). out and in are g's rows (the
	// same CSR when the graph is undirected). inputEdges sizes the
	// construction charge; built records that BuildStructure ran.
	g          *graph.Simple
	out        *graph.CSR
	in         *graph.CSR
	inputEdges int
	built      bool
	// Compressed siblings of out/in, present only under Compress; the
	// row selectors below hand them out in place of the raw CSR.
	cout *graph.CompressedCSR
	cin  *graph.CompressedCSR
	n    int
	// total directed edges, used by the direction-optimizing
	// heuristic.
	mEdges int64
	// stream holds the incremental baselines and the epochs they
	// describe; nil until the first maintain.
	stream *streamState
	// trav is the reusable state of the shared traversal steps, which
	// also holds the cancellation hook; ws is the working set of the
	// kernels GAP keeps to itself (workspace.go).
	trav traverse.State
	ws   workspace
}

// SetCancel installs check as the cooperative cancellation hook of the
// long-running kernels; nil removes it. The kernels poll it at coarse,
// schedule-independent points — once per BFS level, delta-stepping
// pass, or PR/WCC iteration — never inside a parallel region, so a nil
// result charges nothing and changes no modeled duration. When it
// returns an error the kernel abandons the run and returns that error
// wrapped, leaving the machine at the modeled time it had reached. The
// hook must be cheap and must not call back into the instance.
func (inst *Instance) SetCancel(check func() error) { inst.trav.Cancel = check }

// Bind implements engines.Instance. It captures the shared graph's rows,
// and under Compress the graph's own compressed siblings (built by the
// first instance that asks); a mutated epoch, the incremental baselines
// and the record of BuildStructure go with the graph before.
func (inst *Instance) Bind(g *graph.Simple, m *simmachine.Machine, o engines.Options) {
	*inst = Instance{Params: inst.Params, opts: o, m: m, trav: inst.trav, ws: inst.ws}
	if g == nil {
		return
	}
	inst.inputEdges = g.InputEdges
	inst.use(g)
}

// use points the instance at g's rows and, under Compress, at g's
// compressed siblings.
func (inst *Instance) use(g *graph.Simple) {
	inst.g, inst.out, inst.in = g, g.Out, g.In
	if inst.in == nil {
		inst.in = g.Out
	}
	if inst.opts.Compress {
		inst.cout, inst.cin = g.Compressed(inst.out), g.Compressed(inst.in)
	}
}

// BuildStructure implements engines.Instance: Kernel-1-style CSR
// construction, charged as two passes over the edge list, plus the
// encode pass of each compressed sibling. The rows and siblings are the
// shared graph's own; only their construction is charged here. Every
// kernel calls it first: the harness always builds, library users
// might not.
func (inst *Instance) BuildStructure() {
	if inst.built {
		return
	}
	directed := inst.in != inst.out
	inst.m.ChargeUniform(inst.inputEdges, 4096, simmachine.Dynamic, costBuildEdge.Scale(2)) // count + scatter
	if directed {
		inst.m.ChargeUniform(int(inst.out.NumEdges()), 4096, simmachine.Dynamic, costBuildEdge)
	}
	if inst.cout != nil {
		inst.m.ChargeUniform(int(inst.out.NumEdges()), 4096, simmachine.Dynamic, costCompressEdge)
		if directed {
			inst.m.ChargeUniform(int(inst.in.NumEdges()), 4096, simmachine.Dynamic, costCompressEdge)
		}
	}
	inst.n = inst.out.NumVertices
	inst.mEdges = inst.out.NumEdges()
	inst.built = true
}

// outRows is the out-adjacency a top-down level expands: the
// compressed sibling when the engine built one.
func (inst *Instance) outRows() traverse.Rows {
	if inst.cout != nil {
		return inst.cout
	}
	return inst.out
}

// pullRows is what the pull direction needs of the in-adjacency: whole
// rows for PageRank's gather, the early-exit scan for bottom-up BFS.
type pullRows interface {
	traverse.Rows
	FirstIn(v graph.VID, front *parallel.Bitmap) (u graph.VID, scanned, encodedBytes int64, ok bool)
}

// inRows is outRows for the in-adjacency.
func (inst *Instance) inRows() pullRows {
	if inst.cin != nil {
		return inst.cin
	}
	return inst.in
}

// Machine returns the simmachine this instance executes and charges
// on, for callers (benchmarks, scheduling studies) that need to read
// its modeled clock or force a scheduling policy.
func (inst *Instance) Machine() *simmachine.Machine { return inst.m }
