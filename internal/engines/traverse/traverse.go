// Package traverse holds the steps the engines share. The sparse, push
// half: one top-down BFS level (chunked expansion, write-min claim,
// chunk-ordered drain) with the level loop around it, and one
// synchronous SSSP relaxation pass (snapshot gather, serial chunk-order
// apply). The dense half: one vertex sweep over [0,n) — rows through the
// same row source, a chunk-ordered float64 fold, a change count — and
// three label steps on it for the kernels that are one algorithm in two
// engines: the synchronous min-label hook, the synchronous histogram vote
// and the sorted-merge link count. What a level, a relaxation round or a
// sweep *is* does not differ between the systems of the study; what
// differs is storage layout, scheduling and cost per operation. So an
// engine is a cost profile plus a row source handed to these steps, and
// the policy — when to go bottom-up, which bucket a settled vertex
// joins, how PageRank's ranks are stored and when they have converged —
// stays in the engine, around the step. ARCHITECTURE.md tabulates which
// kernel of which engine runs on which step and why the rest is
// engine-owned. Row sources hide the storage format: internal/graph is
// the only package that knows the compressed stream protocol.
//
// Every charged cost is a function of chunk contents only, and every
// frontier and candidate list is canonical by construction (chunk
// order, never arrival order), so results and modeled durations are
// independent of the goroutine schedule and the real worker count.
package traverse

import (
	"fmt"
	"math"
	"sync/atomic"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/parallel"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// Rows is the adjacency a step reads, resolved once per vertex and
// never per edge: *graph.CSR hands out its stored row and merges a row
// an overlay epoch stores as a delta into buf, *graph.CompressedCSR
// decodes into buf, and a property graph returns its per-vertex slice.
type Rows interface {
	// Row returns v's neighbors and the encoded bytes read to produce
	// them (0 when rows are stored raw, merged or not). A source that
	// builds the row builds it in buf, the caller's per-worker scratch;
	// the row is valid until the next Row through the same buf.
	Row(v graph.VID, buf *graph.RowBuf) (adj []graph.VID, encodedBytes int64)
	// Encoded reports whether Row decodes, which selects
	// Profile.EdgeCompressed over Profile.Edge.
	Encoded() bool
}

// WeightedRows is the adjacency a relaxation pass reads: neighbors and
// the parallel weight slice, a merged row built in buf, the caller's
// per-worker scratch, as Rows does.
type WeightedRows interface {
	WeightedRowBuf(v graph.VID, buf *graph.RowBuf) (adj []graph.VID, w []float32)
}

// Profile is everything that distinguishes one engine's top-down BFS
// level from another's.
type Profile struct {
	// Edge is charged per examined edge of a raw row. EdgeCompressed
	// replaces it when rows are decoded: the same cost less the raw
	// 4 B/edge neighbor read, since the encoded bytes actually read are
	// charged on top, with Model.DecodeCyclesPerByte each.
	Edge, EdgeCompressed simmachine.Cost
	// Claim is charged per edge whose target was not finalized before
	// this level — the write-min (CAS, property lock) attempts.
	Claim simmachine.Cost
	// VertexCycles is the queue traffic per frontier vertex: the pop
	// plus the amortized chunk-ordered flush.
	VertexCycles float64
	// Grain is the GrainFixed frontier chunk; Sched the region policy.
	Grain int
	Sched simmachine.Sched
}

// RelaxProfile is the same for a synchronous relaxation pass. A
// profile leaves the terms its engine does not pay zero.
type RelaxProfile struct {
	// Gather, per chunk: Edge per relaxed edge, Cand per candidate
	// found, Vertex per frontier vertex.
	Edge, Cand, Vertex simmachine.Cost
	// Apply, serial: Win per candidate that improved a distance, Merge
	// per candidate walked.
	Win, Merge simmachine.Cost
}

// relaxGrain is the GrainFixed frontier chunk of a gather.
const relaxGrain = 32

// cand is one candidate relaxation found by a gather: "set dist[u] =
// nd with parent p".
type cand struct {
	u, p graph.VID
	nd   float64
}

// State is the reusable working set of the steps, one per engine
// instance (instances are single-caller, so it needs no locking). A
// warm TopDown, Relax, Sweep or Hook allocates nothing of its own:
// per-chunk outputs (TopDown's claims, Relax's candidates) are Kept in
// a Slab, so what a warm step allocates does not depend on the
// schedule's split of chunks and what stays resident is bounded by the
// largest single region's and chunk's outputs, and each step's region
// body is a method of its call record or of a view of the State that
// holds it (topDown, relax, sweep, vote). Every piece is sized where it
// is used from (n, Workers()), so a graph epoch swap or a SetWorkers
// needs no invalidation. The zero State is ready.
type State struct {
	// Cancel, when non-nil, is polled by Levels before every level and
	// by Poll wherever else the engine asks — always between regions,
	// so a nil result charges nothing and an abandoned run has charged
	// exactly the regions it completed.
	Cancel func() error
	// Frontier is the queue-form frontier: TopDown reads it and leaves
	// the next one in it.
	Frontier []graph.VID

	workers int
	edges   *parallel.Counter
	spare   [3]*parallel.Counter // Counter's: for the regions an engine runs itself
	bits    [2]*parallel.Bitmap  // Bitmaps'
	rowBufs []graph.RowBuf       // per-worker Rows and WeightedRows scratch (RowBufs')
	nbrs    [][]graph.VID        // per-worker merged neighborhoods (Neighborhoods')
	chunks  []Chunk              // per-worker Sweep accumulators
	tallies []Tally              // per-worker label histograms (Tallies)
	parts   []float64            // per-chunk sums of the last Sweep

	claims   parallel.ChunkQueue[parallel.Claim]
	claimBuf parallel.Slab[parallel.Claim]

	cands   parallel.ChunkQueue[cand]
	candBuf parallel.Slab[cand]
	// queued[u] == pass marks u as already taken by First in this
	// relaxation pass; pass keeps counting across calls so queued is
	// cleared only when the counter wraps.
	queued []int32
	pass   int32

	// What the step bodies read, set by each step and cleared when it
	// returns, so the State holds no caller's arrays between calls.
	td topDownCall
	rx relaxCall
	sw sweepCall
	lb labelCall
	lc linkCall
}

// The step bodies, views of the State they read.
type topDown State
type relax State
type sweep State
type vote State

// topDownCall is what one TopDown level's chunks read.
type topDownCall struct {
	rows          Rows
	p             *Profile
	frontier      []graph.VID
	parent, depth []int64
	level         int64
	edgeCost      simmachine.Cost
	cpb           float64
}

// relaxCall is what one Relax gather's chunks read.
type relaxCall struct {
	rows     WeightedRows
	p        *RelaxProfile
	frontier []graph.VID
	dist     []float64
	pass     Pass
}

// sweepCall is what one Sweep's chunks read.
type sweepCall struct {
	p    *SweepProfile
	body SweepBody
	cpb  float64
}

// size makes the per-worker parts match m's current worker count.
func (s *State) size(m *simmachine.Machine) {
	if w := m.Workers(); s.workers != w {
		s.workers = w
		s.edges = parallel.NewCounter(w)
		for i := range s.spare {
			s.spare[i] = parallel.NewCounter(w)
		}
		s.rowBufs = make([]graph.RowBuf, w)
		s.nbrs = make([][]graph.VID, w)
		s.chunks = make([]Chunk, w)
	}
}

// ready sizes the per-worker parts and returns the zeroed edge counter.
func (s *State) ready(m *simmachine.Machine) *parallel.Counter {
	s.size(m)
	s.edges.Reset()
	return s.edges
}

// Counter returns the i-th of three per-worker counters, zeroed and
// sized for m's workers, for a region the engine runs itself (the
// steps count on one of their own). It stays valid until the next
// Counter(m, i).
func (s *State) Counter(m *simmachine.Machine, i int) *parallel.Counter {
	s.size(m)
	s.spare[i].Reset()
	return s.spare[i]
}

// RowBufs returns one row buffer per worker of m, for a region the
// engine runs itself. They are the steps' own, free between steps, and
// stay valid until m's worker count changes.
func (s *State) RowBufs(m *simmachine.Machine) []graph.RowBuf {
	s.size(m)
	return s.rowBufs
}

// Neighborhoods returns one neighborhood buffer per worker of m, for
// engines.Neighborhood in a region the engine runs itself; a caller
// stores the grown buffer back. They are LinkCount's own, free between
// steps, and stay valid until m's worker count changes.
func (s *State) Neighborhoods(m *simmachine.Machine) [][]graph.VID {
	s.size(m)
	return s.nbrs
}

// Bitmaps returns two empty bitmaps over [0,n): the dense frontier and
// its successor, kept between calls.
func (s *State) Bitmaps(n int) (front, next *parallel.Bitmap) {
	for i, b := range s.bits {
		if b == nil || b.Len() != n {
			s.bits[i] = parallel.NewBitmap(n)
		} else {
			b.Clear()
		}
	}
	return s.bits[0], s.bits[1]
}

// Poll calls the Cancel hook, wrapping its error with the kernel name
// ("gap: BFS") for the caller's structured logs.
func (s *State) Poll(kernel string) error {
	if s.Cancel == nil {
		return nil
	}
	if err := s.Cancel(); err != nil {
		return fmt.Errorf("%s canceled: %w", kernel, err)
	}
	return nil
}

// Levels is the level loop: it calls level(0), level(1), … until one
// returns an empty next frontier, polling Cancel before each.
func (s *State) Levels(kernel string, level func(depth int64) (frontierLen int)) error {
	for depth, n := int64(0), 1; n > 0; depth++ {
		if err := s.Poll(kernel); err != nil {
			return err
		}
		n = level(depth)
	}
	return nil
}

// StartBFS readies dst (a fresh result when nil) for a search of n
// vertices from root, reusing dst's arrays when they are large enough.
func StartBFS(dst *engines.BFSResult, root graph.VID, n int) *engines.BFSResult {
	dst = Result(dst)
	dst.Root, dst.EdgesExamined = root, 0
	dst.Parent, dst.Depth = Resized(dst.Parent, n), Resized(dst.Depth, n)
	for i := range dst.Parent {
		dst.Parent[i] = engines.NoParent
		dst.Depth[i] = -1
	}
	dst.Parent[root] = int64(root)
	dst.Depth[root] = 0
	return dst
}

// StartSSSP is StartBFS for SSSP: every distance +Inf but the root's.
func StartSSSP(dst *engines.SSSPResult, root graph.VID, n int) *engines.SSSPResult {
	dst = Result(dst)
	dst.Root, dst.Relaxations = root, 0
	dst.Dist, dst.Parent = Resized(dst.Dist, n), Resized(dst.Parent, n)
	for i := range dst.Dist {
		dst.Dist[i] = math.Inf(1)
		dst.Parent[i] = engines.NoParent
	}
	dst.Dist[root] = 0
	dst.Parent[root] = int64(root)
	return dst
}

// Result is a kernel's destination: dst, or a fresh result when dst is
// nil (engines.Instance's ownership rule).
func Result[R any](dst *R) *R {
	if dst == nil {
		return new(R)
	}
	return dst
}

// Resized returns s with length n, reusing its array when large enough.
// The contents are unspecified: callers initialize what they read.
func Resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Settled returns own, the result's half of a pair of arrays that
// swapped roles every round, holding ans, the round's final answer: ans
// is own itself or the other half, the instance's spare, whose entries
// are then copied into own. The result never takes the spare, so the
// instance keeps no array a caller holds.
func Settled[T any](own, ans []T) []T {
	if len(own) > 0 && &own[0] != &ans[0] {
		copy(own, ans)
	}
	return own
}

// BFS is the whole search of an engine that only ever goes top-down,
// written into dst (StartBFS).
func (s *State) BFS(m *simmachine.Machine, rows Rows, p *Profile, kernel string, n int, root graph.VID, dst *engines.BFSResult) (*engines.BFSResult, error) {
	res := StartBFS(dst, root, n)
	s.Frontier = append(s.Frontier[:0], root)
	err := s.Levels(kernel, func(level int64) int {
		res.EdgesExamined += s.TopDown(m, rows, p, res, level)
		return len(s.Frontier)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// TopDown expands Frontier one level along rows, claiming children
// with a priority write on the parent array (min parent wins), and
// replaces Frontier with the next one; it returns the edges examined.
//
// Every lowering of a parent slot pushes a tentative Claim into the
// chunk-ordered queue, and the final minimum always lowers, so the
// winning chunk always holds a claim for its vertex: draining the
// queue with the final parents as the filter keeps exactly that one,
// which makes the next frontier's membership and order depend only on
// the final parents and the chunk partition. Charged costs depend only
// on the frontier slice a chunk owns: Edge per edge, Claim per edge
// whose target is not yet finalized (a set fixed by the previous
// levels), and queue cycles per dequeued vertex. The drain's cost is
// those amortized cycles, not a region of its own: a region per level
// would pay a barrier per level.
func (s *State) TopDown(m *simmachine.Machine, rows Rows, p *Profile, res *engines.BFSResult, level int64) (examined int64) {
	frontier, parent := s.Frontier, res.Parent
	grain := m.Grain(len(frontier), p.Grain, 1)
	exa := s.ready(m)
	s.claims.Reset(parallel.NumChunks(len(frontier), grain))
	s.claimBuf.Reset(s.workers)
	s.td = topDownCall{
		rows: rows, p: p, frontier: frontier, parent: parent, depth: res.Depth, level: level,
		edgeCost: p.Edge, cpb: m.Model().DecodeCyclesPerByte,
	}
	if rows.Encoded() {
		s.td.edgeCost = p.EdgeCompressed
	}
	m.For(len(frontier), grain, p.Sched, (*topDown)(s))
	s.td = topDownCall{}
	s.Frontier = parallel.DrainChunkQueue(&s.claims, frontier[:0], func(c parallel.Claim) (graph.VID, bool) {
		return c.V, parent[c.V] == int64(c.By) // else it lost the min race to another chunk
	})
	return exa.Sum()
}

// Chunk expands one chunk of a TopDown level's frontier.
func (s *topDown) Chunk(lo, hi, chunk, worker int, w *simmachine.W) {
	td := &s.td
	parent, depth, level := td.parent, td.depth, td.level
	local := s.claimBuf.Take(worker)
	buf := &s.rowBufs[worker]
	var edges, claims, decBytes int64
	for _, v := range td.frontier[lo:hi] {
		adj, nb := td.rows.Row(v, buf)
		decBytes += nb
		for _, u := range adj {
			edges++
			// Finalized before this level (root included): skip.
			// Racing claims from this level read -1 or level+1 —
			// both sides of the race take the claim path, so the
			// eligible-edge count is schedule-independent.
			if d := atomic.LoadInt64(&depth[u]); d != -1 && d != level+1 {
				continue
			}
			claims++
			if parallel.LowerMinInt64(&parent[u], int64(v), engines.NoParent) {
				atomic.StoreInt64(&depth[u], level+1)
				local = append(local, parallel.Claim{V: u, By: v})
			}
		}
	}
	s.claims.Put(chunk, s.claimBuf.Keep(worker, local))
	s.edges.Add(worker, edges)
	w.Charge(td.edgeCost.Scale(float64(edges)))
	// Raw rows read no encoded bytes: these two add nothing.
	w.Cycles(td.cpb * float64(decBytes))
	w.Bytes(float64(decBytes))
	w.Charge(td.p.Claim.Scale(float64(claims)))
	w.Cycles(float64(hi-lo) * td.p.VertexCycles)
}

// Pass selects what one relaxation pass relaxes.
type Pass struct {
	// An edge of weight wt is relaxed when (wt > Split) == Heavy: the
	// light or the heavy side of delta-stepping's split. Split +Inf
	// with Heavy false relaxes every edge.
	Split float64
	Heavy bool
	// Stale, when non-nil, drops frontier entries by their snapshot
	// distance before any edge is read (entries a later bucket owns).
	Stale Staler
}

// Staler is a relaxation pass's filter (Pass.Stale).
type Staler interface {
	Stale(dist float64) bool
}

// Winner places a relaxation pass's wins (Relax's onWin); s is the
// State running the pass, for First.
type Winner interface {
	Win(s *State, u graph.VID, nd float64)
}

// Relax is one synchronous relaxation pass over frontier, a
// gather/apply pair, and returns the edges relaxed:
//
//   - gather: chunks of the frontier relax their edges against a
//     *snapshot* of res.Dist (no writes happen during the region),
//     collecting candidate updates per chunk;
//   - apply: the candidates are merged serially in chunk order — the
//     first strict improvement wins — updating distances and parents
//     and calling onWin.Win(s, u, dist) for every win, where the
//     engine places u (a bucket, the next frontier).
//
// The candidate sets are a pure function of the pass-start distances
// and the apply order is fixed, so every observable — parents,
// relaxation counts, what onWin sees, and the modeled durations of the
// parallel gather and the serial merge (a real barrier, charged at
// single-thread speed) — is schedule-independent.
func (s *State) Relax(m *simmachine.Machine, rows WeightedRows, p *RelaxProfile, frontier []graph.VID, res *engines.SSSPResult, pass Pass, onWin Winner) (relaxed int64) {
	dist := res.Dist
	s.queued = Resized(s.queued, len(dist))
	if s.pass == math.MaxInt32 {
		// Old stamps may hold any value the counter is about to reuse.
		clear(s.queued[:cap(s.queued)])
		s.pass = 0
	}
	s.pass++

	g := m.Grain(len(frontier), relaxGrain, 1)
	rel := s.ready(m)
	cands := &s.cands
	cands.Reset(parallel.NumChunks(len(frontier), g))
	s.candBuf.Reset(s.workers)
	s.rx = relaxCall{rows: rows, p: p, frontier: frontier, dist: dist, pass: pass}
	m.For(len(frontier), g, simmachine.Dynamic, (*relax)(s))
	s.rx = relaxCall{}
	m.Serial(func(w *simmachine.W) {
		var wins int
		for _, chunk := range cands.Chunks() {
			for _, c := range chunk {
				if c.nd >= dist[c.u] {
					continue // a chunk-earlier candidate won
				}
				dist[c.u] = c.nd
				res.Parent[c.u] = int64(c.p)
				wins++
				onWin.Win(s, c.u, c.nd)
			}
		}
		w.Charge(p.Win.Scale(float64(wins)))
		w.Charge(p.Merge.Scale(float64(cands.Len())))
	})
	return rel.Sum()
}

// Chunk gathers one chunk of a Relax pass's candidates.
func (s *relax) Chunk(lo, hi, chunk, worker int, w *simmachine.W) {
	rx := &s.rx
	dist, split, heavy, stale := rx.dist, rx.pass.Split, rx.pass.Heavy, rx.pass.Stale
	local := s.candBuf.Take(worker)
	buf := &s.rowBufs[worker]
	var edges int64
	for _, v := range rx.frontier[lo:hi] {
		dv := dist[v]
		if stale != nil && stale.Stale(dv) {
			continue
		}
		adj, ws := rx.rows.WeightedRowBuf(v, buf)
		for i, u := range adj {
			wt := float64(ws[i])
			if (wt > split) != heavy {
				continue
			}
			edges++
			if nd := dv + wt; nd < dist[u] {
				local = append(local, cand{u: u, p: v, nd: nd})
			}
		}
	}
	s.cands.Put(chunk, s.candBuf.Keep(worker, local))
	s.edges.Add(worker, edges)
	w.Charge(rx.p.Edge.Scale(float64(edges)))
	w.Charge(rx.p.Cand.Scale(float64(len(local))))
	w.Charge(rx.p.Vertex.Scale(float64(hi - lo)))
}

// First reports whether this is the first call for u since the current
// Relax began — the same-pass dedup an onWin hook uses to put a vertex
// that wins twice into its next list once.
func (s *State) First(u graph.VID) bool {
	if s.queued[u] == s.pass {
		return false
	}
	s.queued[u] = s.pass
	return true
}
