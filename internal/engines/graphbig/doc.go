// Package graphbig implements a Go analogue of GraphBIG (Nai et al.,
// SC'15), IBM System G's benchmark suite.
//
// Architectural character preserved from the original:
//
//   - a property-graph layout: per-vertex objects own their adjacency
//     lists (slice-of-slices here, matching the pointer-chasing and
//     allocation overhead of System G's vertex/edge property model);
//   - the input file is read and the graph built simultaneously —
//     there is no separately-timed construction phase, which is why
//     Figs. 2 and 3 omit GraphBIG from the construction plots;
//   - frontier-based kernels guard shared state with per-vertex
//     atomics (System G uses fine-grained locks), making GraphBIG the
//     most synchronization-heavy shared-memory system in the study;
//   - SSSP is chaotic parallel Bellman-Ford relaxation by default; a
//     synchronous round-barrier variant (the SyncSSSP knob) makes its
//     parents, relaxation counts, and modeled durations
//     schedule-independent;
//   - PageRank computes in float32 (single-precision vertex
//     properties), so the homogenized ε = 6e-8 L1 stop sits at the
//     precision floor.
//
// Known fidelity gaps: System G's per-vertex mutex traffic is modeled
// as atomic-RMW charges rather than executed locks (Go kernels use
// CAS helpers from internal/parallel), and its C++ object allocator
// behavior is approximated by slice-of-slices indirection costs. BFS
// and the synchronous SSSP round are the steps shared with GAP and
// Graph500 (internal/engines/traverse) reading the property objects'
// rows in place under the levelBFS and roundRelax cost profiles: the
// traversal logic is common, System G's character is in what each
// edge, visit and property touch is charged. The
// suite's GPU and streaming workloads are out of scope; only the six
// study kernels exist. All timing is simmachine-modeled, not
// measured.
package graphbig
