package graph

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

	"github.com/hpcl-repro/epg/internal/parallel"
)

// VID is a vertex identifier. 32 bits covers graphs up to scale 31,
// well beyond this study's scale 23, and halves memory traffic
// relative to int64 — the same choice the Graph500 reference makes.
type VID = uint32

// Edge is one directed edge with an optional weight. For unweighted
// graphs W is zero and ignored.
type Edge struct {
	Src, Dst VID
	W        float32
}

// EdgeList is the unstructured, unsorted edge list from which every
// engine constructs its own data structure. It mirrors the "edge list
// in RAM" that Graph500 Kernel 1 consumes.
type EdgeList struct {
	NumVertices int
	Edges       []Edge
	Weighted    bool
	// Directed reports whether edges are one-way. Kronecker graphs
	// are undirected (each edge yields both CSR directions);
	// cit-Patents is directed.
	Directed bool
}

// Validate checks internal consistency and returns a descriptive error
// for the first violation found.
func (el *EdgeList) Validate() error {
	if el.NumVertices <= 0 {
		return fmt.Errorf("graph: non-positive vertex count %d", el.NumVertices)
	}
	n := VID(el.NumVertices)
	for i, e := range el.Edges {
		if e.Src >= n || e.Dst >= n {
			return fmt.Errorf("graph: edge %d (%d->%d) out of range [0,%d)", i, e.Src, e.Dst, n)
		}
		if el.Weighted && (e.W <= 0 || e.W > 1) {
			return fmt.Errorf("graph: edge %d weight %v outside (0,1]", i, e.W)
		}
	}
	return nil
}

// CSR is a compressed sparse row adjacency structure. Row i's
// neighbors are Adj[Offsets[i]:Offsets[i+1]]; when the graph is
// weighted, Weights runs parallel to Adj.
//
// For undirected graphs each input edge appears in both directions.
// Self-loops are dropped at construction (as in the Graph500
// reference); duplicate edges are kept unless the builder is asked to
// deduplicate.
type CSR struct {
	NumVertices int
	Offsets     []int64 // len NumVertices+1
	Adj         []VID
	Weights     []float32 // nil when unweighted
}

// NumEdges returns the number of stored directed adjacency entries.
func (c *CSR) NumEdges() int64 { return int64(len(c.Adj)) }

// Degree returns the out-degree of v.
func (c *CSR) Degree(v VID) int64 {
	return c.Offsets[v+1] - c.Offsets[v]
}

// Neighbors returns the adjacency slice of v. The caller must not
// modify it.
func (c *CSR) Neighbors(v VID) []VID {
	return c.Adj[c.Offsets[v]:c.Offsets[v+1]]
}

// NeighborWeights returns the weight slice parallel to Neighbors(v).
// It returns nil for unweighted graphs.
func (c *CSR) NeighborWeights(v VID) []float32 {
	if c.Weights == nil {
		return nil
	}
	return c.Weights[c.Offsets[v]:c.Offsets[v+1]]
}

// Row and Encoded make a CSR a traversal row source beside
// CompressedCSR: rows are stored raw, so Row hands out Neighbors(v)
// itself, never touches buf and reports no encoded bytes.
func (c *CSR) Row(v VID, _ []VID) ([]VID, int64) { return c.Neighbors(v), 0 }

// Encoded reports that rows need no decoding.
func (c *CSR) Encoded() bool { return false }

// FirstIn is the early-exit row scan of a pull traversal: the first
// neighbor of v (ascending, when the adjacency is sorted) whose bit is
// set in front, with the entries scanned up to and including it — the
// whole row when none is. Raw rows read no encoded bytes.
func (c *CSR) FirstIn(v VID, front *parallel.Bitmap) (u VID, scanned, encodedBytes int64, ok bool) {
	adj := c.Neighbors(v)
	for i, u := range adj {
		if front.Test(int(u)) {
			return u, int64(i + 1), 0, true
		}
	}
	return 0, int64(len(adj)), 0, false
}

// WeightedRow returns Neighbors(v) and NeighborWeights(v) together.
func (c *CSR) WeightedRow(v VID) ([]VID, []float32) {
	return c.Neighbors(v), c.NeighborWeights(v)
}

// Validate checks the structural invariants of the CSR.
func (c *CSR) Validate() error {
	if c.NumVertices < 0 {
		return fmt.Errorf("graph: negative vertex count")
	}
	if len(c.Offsets) != c.NumVertices+1 {
		return fmt.Errorf("graph: offsets length %d, want %d", len(c.Offsets), c.NumVertices+1)
	}
	if c.Offsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d, want 0", c.Offsets[0])
	}
	for i := 0; i < c.NumVertices; i++ {
		if c.Offsets[i] > c.Offsets[i+1] {
			return fmt.Errorf("graph: offsets not monotone at %d", i)
		}
	}
	if c.Offsets[c.NumVertices] != int64(len(c.Adj)) {
		return fmt.Errorf("graph: offsets end %d, adj length %d", c.Offsets[c.NumVertices], len(c.Adj))
	}
	if c.Weights != nil && len(c.Weights) != len(c.Adj) {
		return fmt.Errorf("graph: weights length %d, adj length %d", len(c.Weights), len(c.Adj))
	}
	n := VID(c.NumVertices)
	for i, v := range c.Adj {
		if v >= n {
			return fmt.Errorf("graph: adj[%d] = %d out of range", i, v)
		}
	}
	return nil
}

// SortAdjacency sorts each vertex's neighbor list ascending (weights
// permuted alongside, ties ordered by weight, so the layout is a pure
// function of the pair multiset; dedupCSR's min-weight rule is
// indifferent to it). Sorted adjacency improves locality, is required
// by the LCC intersection kernels, and is a precondition of
// CompressCSR's unsigned gap encoding. Rows sort in place, in parallel
// on the shared pool.
func (c *CSR) SortAdjacency() { c.sortAdjacency(runtime.GOMAXPROCS(0)) }

// sortRowGrain is the rows per dynamic chunk: small enough that a
// Kronecker hub row does not pin a worker's whole share behind it.
const sortRowGrain = 256

// sortKeys recycles sortPairsPacked's key buffers across chunks and
// across builds: a harness run or a mutate rebuild sorts a graph much
// like the last one, and would otherwise allocate its hub rows' keys
// anew.
var sortKeys = sync.Pool{New: func() any { return new([]uint64) }}

func (c *CSR) sortAdjacency(workers int) {
	if len(c.Adj) < buildSerialCutoff {
		workers = 1
	}
	parallel.For(parallel.Default(), workers, c.NumVertices, sortRowGrain, parallel.Dynamic, func(lo, hi, _, _ int) {
		keys := sortKeys.Get().(*[]uint64)
		defer sortKeys.Put(keys)
		for v := lo; v < hi; v++ {
			a, b := c.Offsets[v], c.Offsets[v+1]
			switch {
			case b-a < 2:
			case c.Weights == nil:
				slices.Sort(c.Adj[a:b])
			default:
				if int64(cap(*keys)) < b-a {
					*keys = make([]uint64, max(b-a, 2*int64(cap(*keys))))
				}
				sortPairsPacked(c.Adj[a:b], c.Weights[a:b], (*keys)[:b-a])
			}
		}
	})
}

// sortPairsPacked orders a row by (neighbor, weight) as one monomorphic
// sort of neighbor<<32 | weight keys. Raw float bits order only the
// non-negative weights, so the low half is the usual order-preserving
// map (negatives complemented, the rest with the sign bit set): every
// pair the float < orders, the keys order the same way.
func sortPairsPacked(adj []VID, w []float32, keys []uint64) {
	for i, u := range adj {
		b := math.Float32bits(w[i])
		if b>>31 != 0 {
			b = ^b
		} else {
			b |= 1 << 31
		}
		keys[i] = uint64(u)<<32 | uint64(b)
	}
	slices.Sort(keys)
	for i, k := range keys {
		b := uint32(k)
		if b>>31 != 0 {
			b &^= 1 << 31
		} else {
			b = ^b
		}
		adj[i], w[i] = VID(k>>32), math.Float32frombits(b)
	}
}

// HasEdge reports whether u has v in its sorted adjacency list. The
// adjacency must have been sorted with SortAdjacency.
func (c *CSR) HasEdge(u, v VID) bool {
	adj := c.Neighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// OutDegrees returns the out-degree of every vertex.
func (c *CSR) OutDegrees() []int64 {
	d := make([]int64, c.NumVertices)
	for v := 0; v < c.NumVertices; v++ {
		d[v] = c.Offsets[v+1] - c.Offsets[v]
	}
	return d
}
