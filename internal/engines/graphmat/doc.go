// Package graphmat implements a Go analogue of GraphMat (Sundaram et
// al., VLDB'15), Intel's "graph analytics as sparse matrix operations"
// engine.
//
// Architectural character preserved from the original:
//
//   - the graph is a doubly-compressed sparse row (DCSR) matrix:
//     only rows with nonzeros are stored, gathered along in-edges
//     (y = Aᵀx), and every kernel is a generalized SpMV over a
//     user-defined semiring (PROCESS_MESSAGE / REDUCE / APPLY). Here
//     the matrix is the list of non-empty rows over the shared CSR,
//     and an SpMV is one traverse.Sweep over that list;
//   - each iteration sweeps the compressed matrix — the sparse-matrix
//     bookkeeping per edge is what the paper calls "the overhead of
//     the sparse matrix operations", which pays off on dense graphs
//     (Dota-League) and hurts on small/sparse ones;
//   - vertex properties are float32 (single precision), and PageRank
//     iterates until NO vertex's rank changes — effectively an
//     ∞-norm-equals-zero stopping rule, the strictest in the study
//     (the paper's Fig. 4 shows GraphMat's iteration count highest);
//   - construction (matrix partitioning and compression) is a
//     separately-timed phase, the slowest of the systems in Fig. 2.
//
// Known fidelity gaps: the real GraphMat tiles the matrix into
// per-thread partitions with SIMD inner loops; here the SpMV sweep is
// scalar Go on the shared runtime and the partitioning cost is
// charged, not executed. MPI GraphMat (the distributed successor) is
// out of scope. The semiring dispatch is Go interface-free static
// code, so its modeled per-edge overhead carries the fidelity, not
// real indirection. All timing is simmachine-modeled.
package graphmat
