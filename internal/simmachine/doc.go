// Package simmachine models the execution of parallel graph kernels on
// a configurable multicore machine.
//
// This repository reproduces a study that ran on a 2-socket, 36-core,
// 72-thread Intel Haswell server. The present environment cannot
// exhibit 72-way parallelism, so engines execute their algorithms for
// real (results are validated against references) while every parallel
// region also charges its work — cycles, DRAM bytes, atomic operations
// — to a deterministic machine model that computes the region's
// duration for an arbitrary virtual thread count. The model captures
// the mechanisms the paper's scalability analysis rests on:
//
//   - scheduling policy: OpenMP-style static (round-robin chunks),
//     dynamic (greedy least-loaded assignment), work-stealing
//     (per-lane deques with seeded randomized victim selection — a
//     deterministic simulation of the Cilk/TBB discipline), and
//     two-level NUMA stealing (socket-aware victim order with
//     remote-steal and remote-chunk-access penalties; both are
//     stealLanesTopo), so load imbalance from skewed degree
//     distributions appears under static scheduling and each policy's
//     remedy — and its locality price — is modeled;
//   - grain resolution: Machine.Grain resolves each region's grain
//     under the fixed (engine-chosen) or adaptive
//     (frontier-proportional, parallel.AdaptiveGrain of the virtual
//     thread count) policy — Spec.Grain;
//   - page placement: an opt-in first-touch model (SetPlacement,
//     Spec.Placement = "firsttouch") records the socket that first
//     touches each page of the region index space and charges the
//     remote-access multiplier when later chunks — under any policy,
//     statically-assigned ones included — read pages placed on
//     another socket; see placement.go;
//   - frequency scaling: single-thread turbo down to all-core base;
//   - a memory-bandwidth roofline with per-socket limits, so
//     bandwidth-bound kernels stop scaling once sockets saturate;
//   - NUMA: a latency penalty once the second socket is in use;
//   - SMT: hardware threads 37–72 add only fractional throughput;
//   - synchronization: fork + barrier overhead per region and an
//     atomic-contention term that grows with active threads.
//
// The model is deterministic: region durations depend only on the
// work charged per chunk index and the policy's per-region seed —
// never on the real goroutine schedule or worker count. To check
// that, build with -tags epg_permute (make permute): every
// For and ForEachThread region then runs its chunks
// serially in the order SetChunkOrder picks, and
// internal/engines/all's FuzzSpec seeds compare eight orders
// bit for bit. A trace of regions is retained for the power
// model.
//
// A region's bookkeeping (a cost slot per chunk, the per-lane sums, the
// scheduler simulations' state, the W a body charges into) lives on
// the Machine and is zeroed on entry, so a warm region allocates
// nothing per chunk or per lane and a region abandoned by a panicking
// body leaves nothing behind; regions do not nest. See "Workspaces and
// result ownership" in ARCHITECTURE.md.
//
// Known fidelity gaps: the model is calibrated from public Haswell-EP
// figures and typical libgomp magnitudes, not measured on the paper's
// machine; cache effects below the DRAM roofline (L2/L3 locality,
// false sharing) are folded into the engines' per-operation byte
// charges; and the steal simulation orders lanes by accumulated load
// rather than simulating preemption, so steal timing is an
// approximation of a real racing scheduler.
package simmachine
