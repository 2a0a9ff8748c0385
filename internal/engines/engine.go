// Package engines defines the common interface that the five graph
// processing systems implement, the declaration each of them exports
// (Decl: name, kernels, load phases, knobs), and normalized result
// types.
//
// Each engine package (graph500, gap, graphbig, graphmat, powergraph)
// reproduces the architectural character of the corresponding system
// from the paper: its storage layout, parallelization strategy,
// algorithmic variants, and floating-point precision. The shared
// interface is what the paper's framework relies on: homogeneous
// inputs, homogeneous stopping criteria, and separately measurable
// execution phases.
package engines

import (
	"fmt"
	"math"

	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// Algorithm names one of the study's kernels.
type Algorithm string

// The three primary algorithms plus the three Graphalytics extras.
const (
	BFS      Algorithm = "BFS"
	SSSP     Algorithm = "SSSP"
	PageRank Algorithm = "PR"
	CDLP     Algorithm = "CDLP"
	LCC      Algorithm = "LCC"
	WCC      Algorithm = "WCC"
)

// AllAlgorithms lists every kernel in report order.
var AllAlgorithms = []Algorithm{BFS, CDLP, LCC, PageRank, SSSP, WCC}

// NoParent marks unreachable vertices in BFS/SSSP parent arrays.
const NoParent = int64(-1)

// BFSResult is a parent tree. Parent[v] == NoParent means v was not
// reached; Parent[root] == root. Depth carries BFS levels.
type BFSResult struct {
	Root   graph.VID
	Parent []int64
	Depth  []int64 // -1 for unreached
	// EdgesExamined is the engine's own count of edge inspections,
	// the basis for TEPS reporting.
	EdgesExamined int64
}

// SSSPResult holds tentative distances; unreachable vertices have
// +Inf. Engines that compute in float32 widen to float64.
type SSSPResult struct {
	Root   graph.VID
	Dist   []float64
	Parent []int64
	// Relaxations counts edge relaxation attempts.
	Relaxations int64
}

// PROpts holds the homogenized PageRank configuration from the paper:
// damping 0.85 and the L1-norm stopping criterion with epsilon 6e-8
// (approximately float32 machine epsilon). Engines whose original
// semantics differ (GraphMat's run-until-no-change) keep those
// semantics, exactly as the paper describes.
type PROpts struct {
	Damping float64
	Epsilon float64
	MaxIter int
}

// DefaultPROpts mirrors the paper's homogenized configuration.
func DefaultPROpts() PROpts {
	return PROpts{Damping: 0.85, Epsilon: 6e-8, MaxIter: 300}
}

func (o PROpts) withDefaults() PROpts {
	d := DefaultPROpts()
	if o.Damping == 0 {
		o.Damping = d.Damping
	}
	if o.Epsilon == 0 {
		o.Epsilon = d.Epsilon
	}
	if o.MaxIter == 0 {
		o.MaxIter = d.MaxIter
	}
	return o
}

// Normalize fills zero fields with defaults.
func (o PROpts) Normalize() PROpts { return o.withDefaults() }

// PRResult holds final scores (sum ≈ 1) and the iteration count the
// paper compares in Fig. 4.
type PRResult struct {
	Rank       []float64
	Iterations int
}

// CDLPResult holds per-vertex community labels after synchronous
// label propagation with minimum-label tie-breaking.
type CDLPResult struct {
	Label      []graph.VID
	Iterations int
}

// LCCResult holds per-vertex local clustering coefficients.
type LCCResult struct {
	Coeff []float64
}

// WCCResult holds per-vertex component IDs, canonicalized to the
// minimum vertex ID in each component.
type WCCResult struct {
	Component []graph.VID
}

// Instance is a machine, aliases into a shared graph and kernel scratch.
// Run methods may be called repeatedly (e.g., 32 roots); instances are
// not safe for concurrent use. A Decl's New makes one.
//
// Every kernel writes into dst, a result the caller owns before and
// after the call: dst's arrays are reused when they can hold n entries
// and replaced when they cannot, every entry of them is written, and a
// nil dst gets a fresh result. The instance keeps no reference to dst or
// its arrays, so a caller that drops each result (a trial that keeps
// only a count) can pass the same dst every time and allocate none.
type Instance interface {
	// Bind points the instance at g and m with the knobs in o, charging
	// nothing. It drops all that came from the graph before (a mutated
	// epoch, baselines, derived structure) and keeps the scratch: results
	// are a new instance's, bit for bit. g is shared between every
	// instance loaded from one edge list (graph.HomogenizeShared: every
	// instance of a run, every Engine.Load of the list) and read-only:
	// an instance aliases its arrays and never writes to them, takes
	// what it derives from g through graph.Derive (built once per graph,
	// whoever is charged for it), and keeps no reference to g itself.
	// Bind(nil, nil, Options{}) leaves the scratch alone.
	Bind(g *graph.Simple, m *simmachine.Machine, o Options)
	// BuildStructure charges the construction of the bound graph's
	// structure, once per Bind: the separately-timed phase, or for an
	// engine that builds while it reads (Decl.SeparateConstruction false)
	// the combined read+build.
	BuildStructure()

	BFS(root graph.VID, dst *BFSResult) (*BFSResult, error)
	SSSP(root graph.VID, dst *SSSPResult) (*SSSPResult, error)
	PageRank(opts PROpts, dst *PRResult) (*PRResult, error)
	CDLP(maxIter int, dst *CDLPResult) (*CDLPResult, error)
	LCC(dst *LCCResult) (*LCCResult, error)
	WCC(dst *WCCResult) (*WCCResult, error)
}

// ErrUnsupported is returned by instances for algorithms the engine
// does not provide.
var ErrUnsupported = fmt.Errorf("engines: algorithm not provided by this engine")

// RunAlgorithm dispatches alg on inst with homogenized defaults and
// returns a fresh result (*BFSResult, *PRResult, …): RunInto with a nil
// dst.
func RunAlgorithm(inst Instance, alg Algorithm, root graph.VID) (any, error) {
	return RunInto(inst, alg, root, nil)
}

// Results holds one result of each kind: the destination of RunInto
// for a caller that runs any kernel and drops what it returns.
type Results struct {
	BFS      BFSResult
	SSSP     SSSPResult
	PageRank PRResult
	CDLP     CDLPResult
	LCC      LCCResult
	WCC      WCCResult
}

// RunInto is RunAlgorithm writing into dst's result of alg's kind, under
// Instance's ownership rule; a nil dst gets a fresh result.
func RunInto(inst Instance, alg Algorithm, root graph.VID, dst *Results) (any, error) {
	var (
		bfs  *BFSResult
		sssp *SSSPResult
		pr   *PRResult
		cdlp *CDLPResult
		lcc  *LCCResult
		wcc  *WCCResult
	)
	if dst != nil {
		bfs, sssp, pr, cdlp, lcc, wcc = &dst.BFS, &dst.SSSP, &dst.PageRank, &dst.CDLP, &dst.LCC, &dst.WCC
	}
	switch alg {
	case BFS:
		return inst.BFS(root, bfs)
	case SSSP:
		return inst.SSSP(root, sssp)
	case PageRank:
		return inst.PageRank(DefaultPROpts(), pr)
	case CDLP:
		return inst.CDLP(DefaultCDLPIterations, cdlp)
	case LCC:
		return inst.LCC(lcc)
	case WCC:
		return inst.WCC(wcc)
	default:
		return nil, fmt.Errorf("engines: unknown algorithm %q", alg)
	}
}

// DefaultCDLPIterations matches the Graphalytics default for
// community detection by label propagation.
const DefaultCDLPIterations = 10

// InfDist is the distance assigned to unreachable vertices.
var InfDist = math.Inf(1)
