// Package gap implements a Go analogue of the GAP Benchmark Suite
// (Beamer, Asanović, Patterson), the best-performing system in the
// paper's study (Table III: GraphBIG's BFS ~85x slower at scale 22).
//
// Architectural character preserved from the original:
//
//   - CSR storage with both out- and in-adjacency (the in-CSR enables
//     pull-direction iteration);
//   - a separately-timed graph construction phase (Fig. 2/3 report
//     GAP's construction separately);
//   - direction-optimizing BFS, the design choice behind GAP's BFS win,
//     with the published α=15, β=18 switching heuristics (the paper
//     notes it uses these defaults untuned);
//   - delta-stepping SSSP with a configurable Δ — chaotic CAS-racing
//     relaxation by default, or a synchronous bucket-barrier variant
//     (the SyncSSSP knob) whose parents, relaxation counts, and modeled
//     durations are schedule-independent;
//   - pull-based PageRank in float64 with the homogenized L1 stopping
//     criterion;
//   - Shiloach-Vishkin style connected components (the suite's CC);
//   - OpenMP-style dynamic scheduling with small grains.
//
// Streaming (stream.go) is this reproduction's, not the suite's: Mutate
// swaps in overlay epochs, IncrementalWCC repairs its labels from the
// rows that changed, and IncrementalPageRank keeps only its last answer
// and runs the kernel again when the rows' membership changed.
//
// Known fidelity gaps: the real suite is C++ with OpenMP; here the
// kernels run on the shared Go runtime (internal/parallel) and all
// timing is charged to internal/simmachine's Haswell model rather
// than measured. The top-down BFS level and the synchronous SSSP pass
// are not GAP's own code but the steps GAP shares with Graph500 and
// GraphBIG (internal/engines/traverse), run under GAP's cost profiles
// (topDown, syncRelax in gap.go): what is GAP here is the policy
// around them — the α/β direction switch with its bottom-up step and
// queue↔bitmap conversion, and the Δ-bucket placement — so its
// sliding queue is the step's chunk-ordered claim queue, not per-thread
// buffers. NUMA-aware first-touch placement is the machine model's,
// not the arrays'. The synchronous SSSP mode pays a serial merge per
// bucket pass that the real suite does not have. The suite's other
// kernels (BC, TC) are not ported: no system of the study runs them.
package gap
