// Package parallel is the shared parallel-primitives runtime that all
// five engine analogues execute on: a reusable worker pool, a chunked
// ParallelFor with the simmachine's four scheduling policies,
// per-worker counters, write-min atomics, a parallel prefix sum, and
// three frontier representations.
//
// # Scheduling policies
//
// For assigns chunk indices to real workers under one of four
// policies, mirroring simmachine.Sched so engines use one policy for
// both real execution and virtual-lane cost accounting:
//
//   - Static: chunk c runs on worker c % workers (OpenMP
//     schedule(static, grain)). Zero coordination, maximal imbalance
//     on skewed chunk costs.
//   - Dynamic: workers take the next unclaimed chunk off one shared
//     atomic counter (OpenMP schedule(dynamic, grain)). Balanced, but
//     every chunk claim contends on the same cache line, which
//     serializes at high worker counts.
//   - Steal: each worker owns a Chase–Lev deque prefilled with its
//     static share; owners pop locally (no contention at all while
//     work remains) and idle workers steal from victims chosen by a
//     per-region seeded RNG. This is the Cilk/TBB discipline that
//     work-stealing runtimes use to make graph kernels scale.
//   - NUMA: Steal with two-level victim selection over a socket
//     Topology (consecutive worker blocks): idle workers probe and
//     sweep same-socket victims before touching a remote socket, so
//     chunks tend to stay on the socket of their static owner. With
//     one socket it is exactly Steal. ForTopo takes the topology
//     explicitly; For uses the GOMAXPROCS-derived DefaultTopology.
//
// # Grain policy
//
// Regions name a grain; AdaptiveGrain offers the frontier-
// proportional alternative (GrainPolicy, Spec.Grain = "adaptive"):
// the smallest align-multiple grain yielding at most
// consumers×AdaptiveChunksPerLane chunks. Fixed grains leave small
// frontier regions with fewer chunks than lanes — nothing to steal
// exactly where degree skew bites — while the adaptive policy keeps
// about eight chunks per lane at any region size. It is a pure
// function of (n, consumers, align); callers pass the *virtual* lane
// count so chunk partitions stay schedule-independent.
//
// # Frontier representations
//
// Graph kernels pick among three frontier structures, in increasing
// order of structure (and decreasing coordination):
//
//   - Queue — a single atomic bag filled with one fetch-and-add per
//     batch. Membership is schedule-independent when the pushed set
//     is; order is racy. Used only where a bag is the point: GraphBIG's
//     chaotic SSSP relaxation (System G's contended frontier is part
//     of its modeled character).
//   - ChunkQueue — per-chunk local buffers concatenated in chunk index
//     order, the real GAP suite's sliding-queue discipline. Since
//     chunk indices are stable, the concatenation is canonical without
//     sorting. The top-down BFS level GAP, Graph500 and GraphBIG
//     share (internal/engines/traverse) collects
//     tentative write-min claims here (LowerMinInt64 + Claim) and
//     drains the winners; GAP's delta-stepping buckets and both
//     synchronous SSSP modes collect bucket updates and relaxation
//     candidates the same way — no kernel sorts a frontier.
//     Producers append into their worker's scratch and Keep it in a
//     Slab (one array per region, a copy per chunk) and consumers walk
//     Chunks() in place, so a warm region allocates no slice per chunk
//     whichever worker ran which chunk, and nothing is concatenated;
//     what a Slab retains is bounded by the largest region's and
//     chunk's outputs, not by the chunk count.
//   - Bitmap — dense membership with atomic (idempotent, commutative)
//     set, atomic test, and a parallel two-pass ToSlice built on
//     ScanInt64. GAP's bottom-up BFS keeps its frontier here,
//     converting queue↔bitmap at the direction switch exactly as the
//     real sliding queue does; PowerGraph's supersteps use it for
//     their active-vertex sets.
//
// ScanInt64, the parallel exclusive prefix sum, is also the merge step
// of the atomic-free CSR builder (internal/graph.BuildCSR): per-worker
// degree histograms become row offsets with zero per-edge atomics.
//
// # Determinism contract
//
// Everything in this package separates *real execution schedule*
// (which goroutine runs which chunk, decided by the OS and, under
// Steal, by steal races) from *logical schedule* (how chunk indices
// map to results). Kernel outputs and simmachine cost accounting key
// off chunk indices only, so results and modeled durations are
// identical across runs and across real worker counts under every
// policy. Floating-point reductions use per-chunk slots folded in
// chunk order (traverse.State.Sweep); racy helpers whose results are
// order-independent (WriteMinInt64, Counter sums, Queue membership,
// Bitmap sets) are safe because min, integer addition, and bitwise OR
// are commutative. The ChunkQueue claim protocol extends this to
// frontier *order*: every LowerMinInt64 lowering pushes a tentative
// Claim, and the drain keeps exactly the claim matching the final
// minimum — so the winner's chunk, and with it the concatenated
// order, is a pure function of the input.
//
// # Fidelity notes
//
// The pool models nothing: it is the real execution substrate. What
// it cannot reproduce is hardware concurrency beyond GOMAXPROCS —
// worker counts above the core count are legal (goroutines are
// multiplexed) and exercised by the determinism tests, but wall-clock
// speedup saturates at the host's parallelism. Modeled scaling comes
// from internal/simmachine instead.
package parallel
