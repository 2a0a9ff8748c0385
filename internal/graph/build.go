package graph

import (
	"runtime"

	"github.com/hpcl-repro/epg/internal/parallel"
)

// BuildOptions controls CSR construction.
type BuildOptions struct {
	// Workers is the number of construction goroutines; 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// Symmetrize inserts the reverse of every edge, turning a
	// directed edge list into an undirected adjacency structure
	// (the Graph500 convention for Kronecker graphs).
	Symmetrize bool
	// DropSelfLoops removes u->u edges, as the Graph500 reference
	// does during Kernel 1.
	DropSelfLoops bool
	// Dedup removes duplicate (src,dst) pairs, and implies Sort. For
	// weighted graphs the least weight among parallel edges is kept:
	// a rule independent of the order the duplicates arrived in, and
	// the right one for shortest paths.
	Dedup bool
	// Sort sorts each adjacency list ascending.
	Sort bool
}

func (o *BuildOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// buildSerialCutoff is the edge count below which construction runs on
// one worker: the histogram/scan machinery only pays for itself on
// inputs large enough to amortize a barrier.
const buildSerialCutoff = 1 << 12

// BuildCSR constructs a CSR from an edge list using a two-pass
// parallel counting-sort with zero per-edge atomic operations: pass
// one accumulates one degree histogram per worker over its contiguous
// edge range; the histograms are merged and turned into row offsets by
// a parallel exclusive prefix sum (parallel.ScanInt64); pass two
// scatters edges into per-(worker,vertex) reserved sub-ranges, so
// every write lands in a slot no other worker can touch. The result
// is deterministic up to adjacency order (edges of a vertex appear
// grouped by worker rank, then input order); pass Sort for a canonical
// structure.
func BuildCSR(el *EdgeList, opt BuildOptions) *CSR {
	n := el.NumVertices
	w := opt.workers()
	if len(el.Edges) < buildSerialCutoff {
		w = 1
	}
	pool := parallel.Default()
	ne := len(el.Edges)
	block := 0
	if w > 0 {
		block = (ne + w - 1) / w
	}
	edgeRange := func(worker int) (int, int) {
		lo := worker * block
		hi := lo + block
		if lo > ne {
			lo = ne
		}
		if hi > ne {
			hi = ne
		}
		return lo, hi
	}

	// Pass 1: per-worker degree histograms — plain increments into
	// worker-private arrays, no shared state.
	hist := make([][]int32, w)
	pool.Run(w, func(worker int) {
		h := make([]int32, n)
		lo, hi := edgeRange(worker)
		for i := lo; i < hi; i++ {
			e := el.Edges[i]
			if opt.DropSelfLoops && e.Src == e.Dst {
				continue
			}
			h[e.Src]++
			if opt.Symmetrize {
				h[e.Dst]++
			}
		}
		hist[worker] = h
	})

	// Merge: offsets[v] temporarily holds deg(v); in the same sweep
	// each worker's histogram entry is replaced by that worker's
	// start offset *within* vertex v's adjacency row (the reserved
	// sub-range of pass 2).
	offsets := make([]int64, n+1)
	parallel.For(pool, w, n, 4096, parallel.Static, func(lo, hi, chunk, worker int) {
		for v := lo; v < hi; v++ {
			var run int32
			for k := 0; k < w; k++ {
				d := hist[k][v]
				hist[k][v] = run
				run += d
			}
			offsets[v] = int64(run)
		}
	})
	total := parallel.ScanInt64(pool, w, offsets)

	csr := &CSR{
		NumVertices: n,
		Offsets:     offsets,
		Adj:         make([]VID, total),
	}
	if el.Weighted {
		csr.Weights = make([]float32, total)
	}

	// Pass 2: scatter into reserved sub-ranges. Worker k's cursor for
	// vertex v starts at offsets[v] + hist[k][v] and only worker k
	// advances it — no atomics, no races.
	pool.Run(w, func(worker int) {
		rel := hist[worker]
		lo, hi := edgeRange(worker)
		for i := lo; i < hi; i++ {
			e := el.Edges[i]
			if opt.DropSelfLoops && e.Src == e.Dst {
				continue
			}
			p := offsets[e.Src] + int64(rel[e.Src])
			rel[e.Src]++
			csr.Adj[p] = e.Dst
			if el.Weighted {
				csr.Weights[p] = e.W
			}
			if opt.Symmetrize {
				q := offsets[e.Dst] + int64(rel[e.Dst])
				rel[e.Dst]++
				csr.Adj[q] = e.Src
				if el.Weighted {
					csr.Weights[q] = e.W
				}
			}
		}
	})

	switch {
	case opt.Dedup:
		// The sort pass deduplicates each row as it goes and counts
		// what it kept into pass 2's spent cursors; compact then closes
		// the gaps in place.
		deg := hist[0]
		csr.sortRows(w, deg)
		csr.compact(deg)
	case opt.Sort:
		csr.sortRows(w, nil)
	}
	return csr
}

// Transpose returns the reverse-adjacency CSR (in-neighbors) using the
// same atomic-free histogram/scan/reserved-scatter scheme as BuildCSR,
// with workers owning contiguous source-vertex ranges. The transpose
// adjacency order is deterministic up to worker count; engines that
// depend on order (bottom-up BFS takes the first match) sort it.
func Transpose(c *CSR, workers int) *CSR {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := c.NumVertices
	if len(c.Adj) < buildSerialCutoff {
		workers = 1
	}
	pool := parallel.Default()
	block := (n + workers - 1) / workers
	rowRange := func(worker int) (int, int) {
		lo := worker * block
		hi := lo + block
		if lo > n {
			lo = n
		}
		if hi > n {
			hi = n
		}
		return lo, hi
	}

	hist := make([][]int32, workers)
	pool.Run(workers, func(worker int) {
		h := make([]int32, n)
		lo, hi := rowRange(worker)
		for i := c.Offsets[lo]; i < c.Offsets[hi]; i++ {
			h[c.Adj[i]]++
		}
		hist[worker] = h
	})

	offsets := make([]int64, n+1)
	parallel.For(pool, workers, n, 4096, parallel.Static, func(lo, hi, chunk, worker int) {
		for v := lo; v < hi; v++ {
			var run int32
			for k := 0; k < workers; k++ {
				d := hist[k][v]
				hist[k][v] = run
				run += d
			}
			offsets[v] = int64(run)
		}
	})
	parallel.ScanInt64(pool, workers, offsets)

	t := &CSR{
		NumVertices: n,
		Offsets:     offsets,
		Adj:         make([]VID, len(c.Adj)),
	}
	if c.Weights != nil {
		t.Weights = make([]float32, len(c.Weights))
	}
	pool.Run(workers, func(worker int) {
		rel := hist[worker]
		lo, hi := rowRange(worker)
		for v := lo; v < hi; v++ {
			for i := c.Offsets[v]; i < c.Offsets[v+1]; i++ {
				u := c.Adj[i]
				p := offsets[u] + int64(rel[u])
				rel[u]++
				t.Adj[p] = VID(v)
				if c.Weights != nil {
					t.Weights[p] = c.Weights[i]
				}
			}
		}
	})
	return t
}
