// Package graph500 implements a Go analogue of the Graph500 OpenMP
// reference implementation (version ~2.1.4, the one the paper forks).
//
// Architectural character preserved from the original:
//
//   - it is a BFS-only benchmark (Benchmark 1 "Search": Kernel 1
//     builds a CSR from an unsorted edge list, Kernel 2 runs BFS);
//   - the graph is constructed once and all roots run back-to-back
//     with no file I/O in between (the paper notes this makes the
//     Graph500 the most sensitive to CPU noise);
//   - plain level-synchronous top-down BFS — no direction
//     optimization — claiming children through CAS on an int64
//     parent array (the reference stores 64-bit parents, paying more
//     memory traffic than GAP's 32-bit structures);
//   - OpenMP schedule(static)-style round-robin chunking, which on
//     skewed Kronecker frontiers produces the load imbalance visible
//     in the paper's efficiency plot (Fig. 6).
//
// Known fidelity gaps: Kernel 2 is no code of this package: it is the
// top-down level shared with GAP and GraphBIG
// (internal/engines/traverse) under the kernel2 cost profile — 64-bit
// parents as bytes per claim, static scheduling at grain 128 — over the
// raw or compressed CSR, so the reference's visited bitmap exists only
// as a cost term. The reference's MPI variants and its
// validation kernel (Benchmark 1's five-point check) are not
// reproduced — output validity is checked against internal/verify
// instead. The reference generates its own Kronecker input in place;
// here generation lives in internal/kronecker and the edge list
// arrives homogenized like every other engine's. Timing and TEPS come
// from the simmachine model, not wall clock.
package graph500
