// Package server implements epgd, a resident-graph query daemon over
// the reproduction's engines: the dataset is loaded and homogenized
// once, PageRank and WCC vectors are precomputed (and maintained under
// mutation), and point queries — BFS hop distance, SSSP weighted distance,
// PR/WCC lookups, k-hop neighborhood size — are served from memory on
// the modeled worker pool.
//
// The serving layer is built around three robustness mechanisms, in
// the order a request meets them:
//
//	          ┌────────────────────────────────────────────────┐
//	request → │ admission                                      │
//	          │   queue full (depth = cap) ──────────→ 429 shed │
//	          │   token bucket empty ────────────────→ 429 shed │
//	          │   depth ≥ watermark & degradable op ─→ admit*   │
//	          │   otherwise ─────────────────────────→ admit    │
//	          └───────────────┬────────────────────────────────┘
//	                  bounded FIFO queue
//	          ┌───────────────┴────────────────────────────────┐
//	          │ executor (one engine instance per worker)      │
//	          │   load the published generation, bind its graph │
//	          │   admit* → landmark-sketch answer, degraded:true│
//	          │   deadline hook polled per level/pass/iteration │
//	          │     budget exhausted ────────────────→ 504     │
//	          │   panic → recovered, counted ────────→ 500     │
//	          └───────────────▲────────────────────────────────┘
//	            published{graph, vectors, sketch, gen}  (atomic pointer)
//	          ┌───────────────┴────────────────────────────────┐
//	          │ maintainer (the one instance ever mutated)     │
//	          │   mutate (a refresh is an empty one), one at a │
//	          │   time, by the executor that dequeued it: next │
//	          │   graph → vectors → sketch repair → store      │
//	          └────────────────────────────────────────────────┘
//
// Admission is a token bucket in front of a bounded FIFO queue: when
// the queue is at capacity the request is shed immediately (the queue
// never grows without bound), and a drained bucket sheds before the
// queue is touched. Between the degrade watermark and the cap,
// distance queries are still admitted but answered from a precomputed
// landmark-distance sketch — an upper bound computed in microseconds
// instead of a full traversal — and tagged degraded:true, so overload
// degrades answer precision before it degrades availability.
//
// Deadlines are cooperative: the executor installs a cancellation
// hook (gap.Instance.SetCancel) that the kernels poll at coarse,
// schedule-independent points — once per BFS level, delta-stepping
// relaxation pass, or PR/WCC iteration — so a runaway query is
// abandoned at the next frontier with the machine left at the modeled
// time it actually consumed. Panics inside a query (including inside
// parallel regions, which internal/parallel forwards to the
// submitting goroutine) are recovered per query, counted, and
// reported as structured 500s; the daemon never dies with a request.
//
// Writes publish, readers bind: the mutable state (the epoch being
// built, the incremental PR/WCC baselines; the PR baseline is the
// published rank vector itself, which nothing writes) lives once, on the
// maintainer, so a mutate costs one adjacency rebuild however many
// executors serve; an executor moves to a new generation by binding its
// graph (gap.Instance.Bind, then BuildStructure, charged before the
// query's clock starts), and a query that loaded generation g is
// answered from g alone and reports g.
//
// Determinism: query budgets and reported service times are modeled
// seconds on the executor's simmachine, whose clock each query starts
// at zero, so a query reports the same bits on any executor, fresh or
// reused. The load-generator study (Simulate, GenerateStudy) is then a
// virtual-time discrete-event simulation whose every output column is
// a pure function of the seed — byte-identical across runs, GOMAXPROCS
// and host load, so gateable by exact comparison (epg study serving -check).
package server
