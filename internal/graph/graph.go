package graph

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
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
//
// A CSR that Apply returns may instead be an overlay epoch: a flat base
// plus fresh storage for the rows batches rewrote (see patch). An
// overlay's Offsets, Adj and Weights are nil, so code that reads them
// fails loudly rather than reading the base; its rows are reached
// through the accessors (Neighbors, NeighborWeights, WeightedRow, Row,
// FirstIn, Degree, NumEdges, Weighted), and Flat compacts it.
type CSR struct {
	NumVertices int
	Offsets     []int64 // len NumVertices+1
	Adj         []VID
	Weights     []float32 // nil when unweighted

	patch *patch // nil on a flat CSR
}

// NumEdges returns the number of stored directed adjacency entries.
func (c *CSR) NumEdges() int64 {
	if c.patch != nil {
		return c.patch.edges
	}
	return int64(len(c.Adj))
}

// Weighted reports whether rows carry weights.
func (c *CSR) Weighted() bool {
	if c.patch != nil {
		return c.patch.base.Weights != nil
	}
	return c.Weights != nil
}

// Degree returns the out-degree of v.
func (c *CSR) Degree(v VID) int64 {
	if c.patch != nil {
		return int64(len(c.patch.adj(v)))
	}
	return c.Offsets[v+1] - c.Offsets[v]
}

// Neighbors returns the adjacency slice of v. The caller must not
// modify it.
func (c *CSR) Neighbors(v VID) []VID {
	if c.patch != nil {
		return c.patch.adj(v)
	}
	return c.Adj[c.Offsets[v]:c.Offsets[v+1]]
}

// NeighborWeights returns the weight slice parallel to Neighbors(v).
// It returns nil for unweighted graphs.
func (c *CSR) NeighborWeights(v VID) []float32 {
	_, w := c.WeightedRow(v)
	return w
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
	if c.patch != nil {
		return c.patch.row(v)
	}
	lo, hi := c.Offsets[v], c.Offsets[v+1]
	if c.Weights == nil {
		return c.Adj[lo:hi], nil
	}
	return c.Adj[lo:hi], c.Weights[lo:hi]
}

// Validate checks the structural invariants of the CSR.
func (c *CSR) Validate() error {
	if c.patch != nil {
		return c.Flat().Validate()
	}
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
// function of the pair multiset). Sorted adjacency improves locality,
// is required by the LCC intersection kernels, and is a precondition of
// CompressCSR's unsigned gap encoding. Rows sort in place, in parallel
// on the shared pool.
func (c *CSR) SortAdjacency() { c.sortRows(runtime.GOMAXPROCS(0), nil) }

// sortRowGrain is the rows per dynamic chunk: small enough that a
// Kronecker hub row does not pin a worker's whole share behind it.
const sortRowGrain = 256

// sortKeys recycles sortRows' key buffer across builds: a harness run
// or a server rebuild sorts a graph much like the last one, and would
// otherwise allocate its longest rows' keys anew.
var sortKeys = sync.Pool{New: func() any { return new([]uint64) }}

// sortRows sorts every row by (neighbor, weight). With deg non-nil (one
// entry per vertex) it also deduplicates: row v keeps the first entry
// of each run of equal neighbors — the least weight — at the front of
// its range, deg[v] receives the kept count, and compact closes the
// gaps. Each worker sorts through its own slice of one key buffer, as
// long as the longest row; the region takes the buffer from sortKeys,
// growing it to exactly that size when it is short.
func (c *CSR) sortRows(workers int, deg []int32) {
	if len(c.Adj) < buildSerialCutoff {
		workers = 1
	}
	workers = max(1, min(workers, parallel.NumChunks(c.NumVertices, sortRowGrain)))
	var longest int64
	for v := 0; v < c.NumVertices; v++ {
		longest = max(longest, c.Offsets[v+1]-c.Offsets[v])
	}
	digits := (bits.Len(uint(max(c.NumVertices-1, 0))) + 7) / 8
	keys := sortKeys.Get().(*[]uint64)
	defer sortKeys.Put(keys)
	if need := int64(workers) * longest; int64(len(*keys)) < need {
		*keys = make([]uint64, need)
	}
	parallel.For(parallel.Default(), workers, c.NumVertices, sortRowGrain, parallel.Dynamic, func(lo, hi, _, worker int) {
		own := (*keys)[int64(worker)*longest:]
		for v := lo; v < hi; v++ {
			a, b := c.Offsets[v], c.Offsets[v+1]
			var w []float32
			if c.Weights != nil {
				w = c.Weights[a:b]
			}
			kept := sortRow(c.Adj[a:b], w, own[:b-a], digits, deg != nil)
			if deg != nil {
				deg[v] = int32(kept)
			}
		}
	})
}

// compact closes the gaps a deduplicating sortRows left: row v keeps
// the first deg[v] entries of its range. The write cursor never passes
// the read cursor, so rows move down in place.
func (c *CSR) compact(deg []int32) {
	var out int64
	for v := 0; v < c.NumVertices; v++ {
		lo, k := c.Offsets[v], int64(deg[v])
		c.Offsets[v] = out
		if lo != out {
			copy(c.Adj[out:out+k], c.Adj[lo:lo+k])
			if c.Weights != nil {
				copy(c.Weights[out:out+k], c.Weights[lo:lo+k])
			}
		}
		out += k
	}
	c.Offsets[c.NumVertices] = out
	c.Adj = c.Adj[:out]
	if c.Weights != nil {
		c.Weights = c.Weights[:out]
	}
}

// radixCutoff is the row length from which sortRow radix-sorts: below
// it a row has too few entries to pay for the 256-bucket histograms.
const radixCutoff = 32

// sortRow orders one row by its packed keys, neighbor<<32 | weightKey,
// through keys (as long as the row), and returns the row's new length:
// len(adj), or with dedup the number of distinct neighbors, each kept
// with its least-weight entry, the first in key order. w may be nil.
// digits is the number of low bytes the row's neighbor IDs can differ
// in.
//
// Short rows are insertion-sorted. Longer ones are LSD radix-sorted on
// the neighbor half; that sort is stable, so a run of equal neighbors
// keeps its input order, and one insertion pass over the whole row —
// linear but for those runs — orders each run by weight (with dedup the
// run's least key is all that is kept, so it is taken directly).
// Either way the result is the packed keys' total order, a function of
// the row's pair multiset alone.
func sortRow(adj []VID, w []float32, keys []uint64, digits int, dedup bool) int {
	if len(adj) < radixCutoff {
		for i, u := range adj {
			keys[i] = packKey(u, w, i)
		}
		insertionSort(keys)
	} else {
		radixSortRow(adj, w, keys, digits)
		if !dedup {
			insertionSort(keys)
		}
	}
	out := 0
	for i := 0; i < len(keys); out++ {
		k := keys[i]
		for i++; dedup && i < len(keys) && keys[i]>>32 == k>>32; i++ {
			k = min(k, keys[i])
		}
		adj[out] = VID(k >> 32)
		if w != nil {
			w[out] = weightFromKey(uint32(k))
		}
	}
	return out
}

func insertionSort(keys []uint64) {
	for i := 1; i < len(keys); i++ {
		k, j := keys[i], i
		for ; j > 0 && keys[j-1] > k; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = k
	}
}

// radixSortRow stably sorts the row by neighbor into keys, packed. It
// needs no buffer besides keys: the digit passes alternate between the
// packed keys and the row's own arrays, starting from whichever side
// makes the last pass land in keys.
func radixSortRow(adj []VID, w []float32, keys []uint64, digits int) {
	var count [4][256]uint32
	inKeys := digits%2 == 0
	for i, u := range adj {
		count[0][byte(u)]++
		count[1][byte(u>>8)]++
		if inKeys {
			keys[i] = packKey(u, w, i)
		}
	}
	if digits > 2 {
		for _, u := range adj {
			count[2][byte(u>>16)]++
			count[3][byte(u>>24)]++
		}
	}
	for d := 0; d < digits; d++ {
		pos := &count[d]
		var sum uint32
		for b, n := range pos {
			pos[b], sum = sum, sum+n
		}
		shift := 8 * d
		if inKeys {
			for _, k := range keys {
				b := byte(k >> (32 + shift))
				p := pos[b]
				pos[b]++
				adj[p] = VID(k >> 32)
				if w != nil {
					w[p] = weightFromKey(uint32(k))
				}
			}
		} else {
			for i, u := range adj {
				b := byte(u >> shift)
				p := pos[b]
				pos[b]++
				keys[p] = packKey(u, w, i)
			}
		}
		inKeys = !inKeys
	}
}

// packKey is the sort key of entry i: the neighbor in the high half,
// the weight's order-preserving key (zero when unweighted) in the low.
func packKey(u VID, w []float32, i int) uint64 {
	if w == nil {
		return uint64(u) << 32
	}
	return uint64(u)<<32 | uint64(weightKey(w[i]))
}

// weightKey maps a float's bits to an unsigned key in the order float <
// gives them: raw bits order only the non-negative floats, so negatives
// are complemented and the rest get the sign bit set. Every pair < orders,
// the keys order the same way; -0 sorts before +0, a negative NaN first
// and a positive NaN last, and weightFromKey restores every bit.
func weightKey(x float32) uint32 {
	b := math.Float32bits(x)
	if b>>31 != 0 {
		return ^b
	}
	return b | 1<<31
}

func weightFromKey(b uint32) float32 {
	if b>>31 != 0 {
		return math.Float32frombits(b &^ (1 << 31))
	}
	return math.Float32frombits(^b)
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
		d[v] = c.Degree(VID(v))
	}
	return d
}
