// Package graph provides the shared graph representations used by all
// engines: unsorted edge lists (the Graph500 "kernel 0" output),
// compressed sparse row (CSR) structures, and a delta/varint
// byte-compressed adjacency variant (CompressedCSR), along with
// parallel builders and degree utilities.
//
// Vertices are dense integers in [0, N). Edge weights are float32 in
// (0, 1], matching the Graph500 SSSP specification; unweighted graphs
// carry a nil weight slice. All builders are deterministic for a fixed
// input regardless of parallelism.
//
// # Representations
//
// EdgeList is the unstructured input of a run. Homogenize turns it,
// once, into a Simple — the simple graph's out-rows and, when directed,
// in-rows — which every engine of the run loads and none may write to.
// CSR is the canonical adjacency structure: Offsets (int64 row
// starts), Adj (uint32 neighbor IDs), optional parallel Weights.
// BuildCSR and Transpose construct it with zero per-edge atomics
// (per-worker degree histograms merged by parallel.ScanInt64, then a
// scatter into per-(worker,vertex) reserved sub-ranges).
//
// Sorting and deduplication are one parallel pass over the rows. Each
// row is packed into neighbor<<32 | weight-key uint64s (the weight key
// is the order-preserving map of the float's bits) and put in that
// total order: insertion sort for short rows, an LSD radix sort on the
// neighbor bytes plus one insertion pass over runs of equal neighbors
// for the rest. Deduplication keeps the first key of each run, the
// least weight, and records the row's new length; one serial pass then
// closes the gaps in place. The layout is a function of each row's
// (neighbor, weight) multiset, whatever the worker count or the order
// the scatter left.
//
// A mutated CSR is an epoch: (*CSR).Apply returns the next one as an
// overlay, the previous flat base plus the rows the batch dirtied, every
// other row shared, and compacts into a flat CSR once the patch outgrows
// a fixed share of the graph (Aspen's versioned adjacency, reduced to
// one level). An overlay row has one of three forms: flat (the base's
// own row), copied (a fresh copy of the whole row) or delta (the base's
// row under a sorted delta of the entries that differ). The rule is a
// property of the row: a dirty row is a delta row while its base row
// holds at least 512 entries and the delta at most a quarter of them, so
// a batch allocates its hub rows' changed entries, not the hub rows,
// and a later batch composes a delta in O(delta). The read contract:
// an overlay's raw arrays are nil; hot readers go through Row(v, buf)
// and WeightedRowBuf(v, buf), which merge a delta row into the reader's
// buffer and hand every other row out as stored; FirstIn, Degree,
// HasEdge and Diff read deltas without merging; Neighbors and
// WeightedRow materialize a delta row, for cold callers. MutableCSR is
// the same Apply with one current epoch, flattened once per read by its
// CSR().
//
// CompressedCSR is the Ligra+/GBBS-style byte-compressed sibling for
// bandwidth-bound traversal: each vertex's sorted neighbor list is
// stored as a varint degree, a zigzag-varint first-neighbor delta from
// the vertex ID, and unsigned varint gaps between consecutive
// neighbors. CompressCSR builds it from a sorted CSR with the same
// atomic-free discipline (per-vertex byte sizes merged by ScanInt64,
// then a range-reserved encode into one shared byte buffer), so the
// byte layout is deterministic at any worker count. Kernels decode on
// the fly through Row / DecodeNeighbors (scratch-buffer bulk decode)
// or FirstIn (early-exit scan, reports the bytes consumed so cost
// models can charge exactly the decoded prefix); this package is the
// only one that knows the stream protocol. Weights are not compressed;
// weighted kernels keep the raw CSR.
package graph
