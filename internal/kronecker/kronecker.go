// Package kronecker implements the Graph500 synthetic graph generator.
//
// A Kronecker graph of scale S has 2^S vertices and edgefactor*2^S
// edges, generated by recursively choosing one quadrant of the
// adjacency matrix per scale level with the Graph500 initiator
// probabilities A=0.57, B=0.19, C=0.19, D=0.05. As in the reference
// implementation, vertex labels are randomly permuted afterwards so
// that vertex IDs carry no structural information, and each edge
// receives a uniform (0,1] weight for the SSSP benchmark.
//
// Generation is deterministic for a given seed and is parallelized
// over disjoint edge ranges, each with its own SplitMix64-derived
// stream, so results do not depend on GOMAXPROCS.
//
// Each level's quadrant is chosen without floating point or branches:
// the 53-bit draw x behind RNG.Float64 (which returns x/2^53) is
// compared with the integers T = float64(P)·2^53 for P = A, A+B and
// A+B+C. The comparison is exact, not approximate: x/2^53 < float64(P)
// if and only if x < T, because both sides scale by a power of two and
// every float64 in [0.5, 1) is a multiple of 2^-53, so T is an integer.
// The graph is therefore bit-identical to what the float compare gives
// (TestGenerateDigest pins it).
package kronecker

import (
	"runtime"
	"sync"

	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/xrand"
)

// Graph500 initiator matrix parameters.
const (
	A = 0.57
	B = 0.19
	C = 0.19
	D = 1 - (A + B + C) // 0.05
)

// DefaultEdgeFactor is the Graph500 average edges per vertex.
const DefaultEdgeFactor = 16

// Params configures a generation run.
type Params struct {
	Scale      int // 2^Scale vertices
	EdgeFactor int // average (undirected) edges per vertex; 0 means 16
	Seed       uint64
	Workers    int // 0 means GOMAXPROCS
}

func (p Params) edgeFactor() int {
	if p.EdgeFactor > 0 {
		return p.EdgeFactor
	}
	return DefaultEdgeFactor
}

func (p Params) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// NumVertices returns 2^Scale.
func (p Params) NumVertices() int { return 1 << p.Scale }

// NumEdges returns EdgeFactor * 2^Scale.
func (p Params) NumEdges() int { return p.edgeFactor() << p.Scale }

// Generate produces the edge list for the given parameters. Edges are
// undirected (the consumer symmetrizes); self-loops and duplicates are
// possible exactly as in the Graph500 reference, where Kernel 1 is
// responsible for cleaning them up.
func Generate(p Params) *graph.EdgeList {
	if p.Scale < 1 || p.Scale > 30 {
		panic("kronecker: scale out of supported range [1,30]")
	}
	n := p.NumVertices()
	m := p.NumEdges()
	el := &graph.EdgeList{
		NumVertices: n,
		Edges:       make([]graph.Edge, m),
		Weighted:    true,
		Directed:    false,
	}

	perm := vertexPermutation(n, p.Seed)

	workers := p.workers()
	var wg sync.WaitGroup
	chunk := (m + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= m {
			break
		}
		hi := min(lo+chunk, m)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				// Each edge draws from its own counter-based
				// stream: identical output for any worker split.
				st := p.Seed ^ xrand.Mix64(uint64(i)+0x9e37)
				r := xrand.New(st)
				src, dst := sampleEdge(p.Scale, r)
				el.Edges[i] = graph.Edge{
					Src: perm[src],
					Dst: perm[dst],
					W:   weightFor(r),
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	return el
}

// The quadrant thresholds as 53-bit integers (the package doc says why
// comparing with them is exact; the conversions would not compile if a
// product were not an integer).
const (
	thresholdA   = uint64(float64(A) * (1 << 53))
	thresholdAB  = uint64(float64(A+B) * (1 << 53))
	thresholdABC = uint64(float64(A+B+C) * (1 << 53))
)

// atLeast is 1 when x >= t and 0 otherwise, for x, t < 2^63: the sign
// of x-t, without a branch.
func atLeast(x, t uint64) uint64 { return 1 ^ (x-t)>>63 }

// quadrant maps a 53-bit draw to the (row, column) bits of one level's
// quadrant: (0,0) below A, (0,1) below A+B, (1,0) below A+B+C, (1,1)
// above. The row bit is the middle compare; the column bit is set in
// the first and third bands, the parity of all three compares.
func quadrant(x uint64) (iBit, jBit uint64) {
	iBit = atLeast(x, thresholdAB)
	return iBit, atLeast(x, thresholdA) ^ iBit ^ atLeast(x, thresholdABC)
}

// sampleEdge picks one (src, dst) pair by the RMAT quadrant recursion.
func sampleEdge(scale int, r *xrand.RNG) (graph.VID, graph.VID) {
	var src, dst uint64
	for level := 0; level < scale; level++ {
		iBit, jBit := quadrant(r.Uint64() >> 11)
		src = src<<1 | iBit
		dst = dst<<1 | jBit
	}
	return graph.VID(src), graph.VID(dst)
}

// weightFor draws the uniform (0,1] edge weight specified for the
// Graph500 SSSP benchmark. Zero weights are excluded so shortest paths
// are unique in measure.
func weightFor(r *xrand.RNG) float32 {
	for {
		w := r.Float32()
		if w > 0 {
			return w
		}
	}
}

// vertexPermutation returns the Graph500-style random relabeling of
// [0, n).
func vertexPermutation(n int, seed uint64) []graph.VID {
	r := xrand.New(seed ^ 0x5bf03635)
	perm := make([]graph.VID, n)
	for i := range perm {
		perm[i] = graph.VID(i)
	}
	r.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return perm
}
