package engines

import (
	"fmt"
	"slices"
	"sort"

	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// Decl declares one engine: its name, the kernels it provides, the
// shape of its load phases and the knobs its instances honor. It is all
// the registry, the harness and the walls know of an engine beyond its
// Instance's kernel bodies. Each engine package exports one, and
// all.Registry lists them in the paper's order.
type Decl struct {
	Name string
	// Kernels lists the algorithms the engine provides a reference
	// implementation of (PowerGraph famously lacks BFS), in
	// AllAlgorithms order; its instances answer ErrUnsupported for the
	// rest (see Unsupported).
	Kernels []Algorithm
	// SeparateConstruction reports whether graph construction is a
	// distinct, separately-timed phase. An engine without one builds
	// while it reads: its BuildStructure charges the combined read+build,
	// which LoadSimple runs.
	SeparateConstruction bool
	// Knobs holds true for each option the instances act on; an engine
	// with Mutations has instances that implement Streamer.
	Knobs Options
	// New returns an idle instance: scratch only, bound to nothing.
	New func() Instance
}

// Has reports whether the engine provides alg.
func (d *Decl) Has(alg Algorithm) bool { return slices.Contains(d.Kernels, alg) }

// Honored is the part of req the engine's instances act on; a knob
// requested in req and false here is dropped.
func (d *Decl) Honored(req Options) Options {
	return Options{
		SyncSSSP:  req.SyncSSSP && d.Knobs.SyncSSSP,
		Compress:  req.Compress && d.Knobs.Compress,
		Mutations: req.Mutations && d.Knobs.Mutations,
	}
}

// Options is the set of engine-side knobs, as one request (Bind,
// Configure) or as what an engine honors (Decl.Knobs). The zero value
// asks for nothing: the engine as the paper ran it.
type Options struct {
	// SyncSSSP selects the synchronous SSSP mode (GAP's bucket-barrier
	// delta-stepping, GraphBIG's round-barrier relaxation), whose
	// parents, relaxation counts and modeled durations are
	// schedule-independent. The default keeps the real systems' racy
	// relaxation.
	SyncSSSP bool
	// Compress makes the delta+varint compressed sibling of the
	// adjacency (graph.CompressedCSR) the row source of the BFS and
	// PageRank inner loops. Outputs are identical to the raw run; only
	// the modeled decode and bandwidth costs move.
	Compress bool
	// Mutations asks for the streaming phase: batched edge mutations
	// with incremental maintenance (Streamer).
	Mutations bool
}

// BytesPerTextEdge estimates the on-disk size of one SNAP text edge (two
// decimal IDs, separators, optional weight): the modeled file read of a
// load is this much per input edge.
const BytesPerTextEdge = 16

// Engine is a declared engine and the knobs requested of it, which the
// instances LoadSimple and Load make are bound with.
type Engine struct {
	*Decl
	opts Options
}

// Configure sets the knobs e's later loads bind with to the part of req
// e honors, and returns that part: a knob requested in req and false in
// the result is dropped.
func Configure(e *Engine, req Options) Options {
	e.opts = e.Honored(req)
	return e.opts
}

// LoadSimple is a new instance bound to g and m with e's knobs
// (Instance.Bind). For an engine without a separate construction phase
// it also charges the combined read+build.
func (e *Engine) LoadSimple(g *graph.Simple, m *simmachine.Machine) Instance {
	inst := e.New()
	inst.Bind(g, m, e.opts)
	if !e.SeparateConstruction {
		inst.BuildStructure()
	}
	return inst
}

// Load is LoadSimple on el's graph, shared per edge list
// (graph.HomogenizeShared): every instance loaded from one list, while
// the list is unedited, aliases one graph and what the engines derived
// from it.
func (e *Engine) Load(el *graph.EdgeList, m *simmachine.Machine) (Instance, error) {
	g, err := graph.HomogenizeShared(el)
	if err != nil {
		return nil, err
	}
	return e.LoadSimple(g, m), nil
}

// Registry lists the engines a run can name, in the paper's order.
type Registry []*Decl

// Names returns the engines' names in registry order.
func (r Registry) Names() []string {
	out := make([]string, len(r))
	for i, d := range r {
		out[i] = d.Name
	}
	return out
}

// Decl returns the named engine's declaration.
func (r Registry) Decl(name string) (*Decl, error) {
	for _, d := range r {
		if d.Name == name {
			return d, nil
		}
	}
	known := r.Names()
	sort.Strings(known)
	return nil, fmt.Errorf("engines: unknown engine %q (have %v)", name, known)
}

// Unsupported answers ErrUnsupported for every kernel. An engine's
// instance embeds it and defines the kernels its Decl lists, which
// shadow these.
type Unsupported struct{}

func (Unsupported) BFS(graph.VID, *BFSResult) (*BFSResult, error)    { return nil, ErrUnsupported }
func (Unsupported) SSSP(graph.VID, *SSSPResult) (*SSSPResult, error) { return nil, ErrUnsupported }
func (Unsupported) PageRank(PROpts, *PRResult) (*PRResult, error)    { return nil, ErrUnsupported }
func (Unsupported) CDLP(int, *CDLPResult) (*CDLPResult, error)       { return nil, ErrUnsupported }
func (Unsupported) LCC(*LCCResult) (*LCCResult, error)               { return nil, ErrUnsupported }
func (Unsupported) WCC(*WCCResult) (*WCCResult, error)               { return nil, ErrUnsupported }

// MutationReport summarizes one applied batch for callers that charge
// or log mutation work.
type MutationReport struct {
	Stats graph.MutStats
	// DirtyRows counts adjacency rows rebuilt in the out-structure;
	// EdgesTouched is the total merge work (old + new row lengths over
	// dirty rows, out- and in-structure combined).
	DirtyRows    int
	EdgesTouched int64
}

// Streamer is implemented by the instances of an engine that declares
// Mutations: they accept batched edge mutations with incremental result
// maintenance. The contract mirrors the six kernels' determinism walls:
// after any sequence of Mutate calls, IncrementalPageRank and
// IncrementalWCC return results bit-equal to a full PageRank/WCC
// recompute on the post-batch graph, identically across runs and worker
// counts. Mutations accumulate; each incremental call works from what
// changed between the epoch of its last result and the current one, and
// its result becomes the new baseline.
//
// Graph is the instance's current epoch: the graph it was bound to
// until the first Mutate, then the graph Mutate left. It is read-only
// like every bound graph, and shared: the harness draws the next batch
// from it and binds it, as it stands, to the instance of the stream's
// full recompute, and the serving daemon publishes it to its executors.
type Streamer interface {
	Mutate(batch graph.Batch) (*MutationReport, error)
	Graph() *graph.Simple
	IncrementalPageRank(opts PROpts) (*PRResult, error)
	IncrementalWCC() (*WCCResult, error)
}
