package graphmat

import (
	"math"
	"sync/atomic"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/traverse"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/parallel"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// rowBody is an SpMV's loop body, a method of the record it reads: Rows
// runs one chunk's slice of mat's stored rows, accumulating into c.
type rowBody interface {
	Rows(c *traverse.Chunk, mat *graph.CSR, rows []graph.VID)
}

// spmv is one SpMV: a Sweep (spmvPass) over mat's stored rows, handing
// body each chunk's slice of them. Row headers are charged for every
// stored row each sweep — the SpMV character that makes GraphMat's
// per-iteration cost proportional to the stored matrix, not the active
// frontier. Each row writes only row-owned state, so the sweeps are
// deterministic.
func (inst *Instance) spmv(mat *graph.CSR, rows []graph.VID, body rowBody) (sum float64, changed int64) {
	sp := &inst.sp
	*sp = spmvCall{mat: mat, rows: rows, body: body}
	sum, changed = inst.trav.Sweep(inst.m, len(rows), inst.m.Grain(len(rows), 256, 1), &spmvPass, sp)
	*sp = spmvCall{}
	return sum, changed
}

// spmvCall is what one SpMV's chunks read.
type spmvCall struct {
	mat  *graph.CSR
	rows []graph.VID
	body rowBody
}

// Sweep hands one chunk's slice of the stored rows to the body.
func (sp *spmvCall) Sweep(c *traverse.Chunk, lo, hi int) {
	sp.body.Rows(c, sp.mat, sp.rows[lo:hi])
}

// denseSweep charges one pass over a length-n dense vector.
func (inst *Instance) denseSweep(mult float64) {
	inst.m.ChargeUniform(inst.n, inst.m.Grain(inst.n, 8192, 1), simmachine.Dynamic, costVecEntry.Scale(mult))
}

// BFS implements engines.Instance: repeated Boolean-semiring SpMV.
// Each level sweeps all unvisited rows and reduces over all their
// in-edges (no early exit — the semiring REDUCE visits every
// message), which is why GraphMat's BFS is orders of magnitude
// slower than direction-optimized traversal on small graphs.
func (inst *Instance) BFS(root graph.VID, dst *engines.BFSResult) (*engines.BFSResult, error) {
	inst.BuildStructure()
	n := inst.n
	res := traverse.StartBFS(dst, root, n)
	bc := &inst.bfs
	*bc = bfsCall{res: res}

	// Frontier sparse vector as a dense mask: one bit per vertex
	// (parallel.Bitmap) instead of the byte-per-vertex []bool the
	// port used before — 8x less mask traffic per sweep, same
	// semantics (the equivalence wall in graphmat_test.go holds the
	// bitmap kernels to a serial []bool reference).
	bc.active, bc.nextActive = inst.trav.Bitmaps(n)
	bc.active.Set(int(root))
	var examined int64

	for ; ; bc.level++ {
		_, found := inst.spmv(inst.in, inst.inRows, bc)
		examined += inst.in.NumEdges() // every stored row, in full
		// APPLY plus the sparse-vector rebuild and mask updates
		// GraphMat performs between SpMV calls.
		inst.denseSweep(3)
		if found == 0 {
			break
		}
		bc.active, bc.nextActive = bc.nextActive, bc.active
		bc.nextActive.Clear()
	}
	*bc = bfsCall{}
	res.EdgesExamined = examined
	return res, nil
}

// bfsCall is what a BFS level's SpMV reads: the result it claims
// parents in, the frontier mask and its successor, and the level.
type bfsCall struct {
	res                *engines.BFSResult
	active, nextActive *parallel.Bitmap
	level              int64
}

// Rows is the BFS SpMV body: each stored row not yet reached takes the
// smallest parent among its in-neighbors in the frontier.
func (bc *bfsCall) Rows(c *traverse.Chunk, in *graph.CSR, rows []graph.VID) {
	res, active := bc.res, bc.active
	var fnd int64
	for _, v := range rows {
		// GraphMat 1.0 evaluates the semiring over every stored
		// nonzero each sweep; the full scan is charged whether or not
		// this row can still change.
		adj := c.Row(in, int(v))
		if res.Parent[v] != engines.NoParent {
			continue
		}
		var parent int64 = engines.NoParent
		for _, u := range adj {
			if active.Test(int(u)) {
				// REDUCE keeps the smallest parent id; the sweep
				// continues (semiring reduce).
				if parent == engines.NoParent || int64(u) < parent {
					parent = int64(u)
				}
			}
		}
		if parent != engines.NoParent {
			res.Parent[v] = parent
			res.Depth[v] = bc.level + 1
			bc.nextActive.Set(int(v))
			fnd++
		}
	}
	c.Changed, c.Work = fnd, fnd
}

// SSSP implements engines.Instance: min-plus semiring SpMV iterated
// until no distance changes. Distances are float32 (GraphMat's single
// precision vertex properties).
func (inst *Instance) SSSP(root graph.VID, dst *engines.SSSPResult) (*engines.SSSPResult, error) {
	inst.BuildStructure()
	if !inst.weighted {
		return nil, engines.ErrUnsupported
	}
	n := inst.n
	res := traverse.StartSSSP(dst, root, n)
	// Synchronous min-plus semantics: each sweep reads the previous
	// iteration's vector (cur) and writes the next (nxt).
	inst.vec[0], inst.vec[1] = traverse.Resized(inst.vec[0], n), traverse.Resized(inst.vec[1], n)
	sc := &inst.sssp
	*sc = ssspCall{res: res, cur: inst.vec[0], nxt: inst.vec[1]}
	inf := float32(math.Inf(1))
	for i := range sc.cur {
		sc.cur[i] = inf
	}
	sc.cur[root] = 0

	// Same bit-per-vertex masks as BFS (see the comment there).
	sc.active, sc.nextActive = inst.trav.Bitmaps(n)
	sc.active.Set(int(root))
	var relaxations int64

	for {
		copy(sc.nxt, sc.cur)
		processed, changed := inst.spmv(inst.in, inst.inRows, sc)
		relaxations += int64(processed)
		inst.denseSweep(2) // copy + apply
		if changed == 0 {
			break
		}
		sc.cur, sc.nxt = sc.nxt, sc.cur
		sc.active, sc.nextActive = sc.nextActive, sc.active
		sc.nextActive.Clear()
	}
	for v := 0; v < n; v++ {
		res.Dist[v] = float64(sc.cur[v])
	}
	*sc = ssspCall{}
	res.Relaxations = relaxations
	return res, nil
}

// ssspCall is what an SSSP iteration's SpMV reads: the result it sets
// parents in, the previous distance vector and the next, and the mask
// of vertices whose distance moved and its successor.
type ssspCall struct {
	res                *engines.SSSPResult
	cur, nxt           []float32
	active, nextActive *parallel.Bitmap
}

// Rows is the SSSP SpMV body: each stored row's best distance through
// an in-neighbor that moved in the last iteration.
func (sc *ssspCall) Rows(c *traverse.Chunk, in *graph.CSR, rows []graph.VID) {
	cur, active := sc.cur, sc.active
	var relaxed, chg int64
	for _, v := range rows {
		adj, wts := c.Row(in, int(v)), in.NeighborWeights(v)
		best := cur[v]
		var bestParent int64 = -2 // sentinel: unchanged
		for i, u := range adj {
			if !active.Test(int(u)) {
				continue
			}
			relaxed++
			if nd := cur[u] + wts[i]; nd < best {
				best = nd
				bestParent = int64(u)
			}
		}
		if bestParent != -2 {
			sc.nxt[v] = best
			sc.res.Parent[v] = bestParent
			sc.nextActive.Set(int(v))
			chg++
		}
	}
	c.Sum, c.Changed, c.Work = float64(relaxed), chg, relaxed
}

// PageRank implements engines.Instance. GraphMat's semantics from the
// paper: float32 ranks, iterating until no vertex's rank changes at
// all (∞-norm exactly zero) — there is no computation of the L1
// difference, so the homogenized ε plays no role here.
func (inst *Instance) PageRank(opts engines.PROpts, dst *engines.PRResult) (*engines.PRResult, error) {
	inst.BuildStructure()
	opts = opts.Normalize()
	n := inst.n
	res := traverse.Result(dst)
	res.Rank, res.Iterations = traverse.Resized(res.Rank, n), 0
	if n == 0 {
		return res, nil
	}
	for i := range inst.vec {
		inst.vec[i] = traverse.Resized(inst.vec[i], n)
	}
	pr := &inst.pr
	*pr = prCall{out: inst.out, rank: inst.vec[0], next: inst.vec[1], contrib: inst.vec[2], damping: float32(opts.Damping)}
	inv := float32(1.0 / float64(n))
	for i := range pr.rank {
		pr.rank[i] = inv
	}
	// GraphMat iterates beyond where L1-stopping engines halt; give
	// it headroom above the homogenized cap, as the paper observed.
	maxIter := opts.MaxIter * 2
	gRed := inst.m.Grain(n, 4096, 1)
	gNorm := inst.m.Grain(n, 8192, 1)
	for iter := 1; iter <= maxIter; iter++ {
		dangling, _ := inst.trav.Sweep(inst.m, n, gRed, &vecPass, (*contribSweep)(pr))
		pr.base = float32((1-opts.Damping)/float64(n) + opts.Damping*dangling/float64(n))

		for i := range pr.next {
			pr.next[i] = pr.base
		}
		inst.spmv(inst.in, inst.inRows, (*gatherRows)(pr))
		// "No vertex changes rank": the paper notes GraphMat's stop
		// is effectively an ∞-norm below machine epsilon. Single
		// precision sustains sub-epsilon limit cycles forever, so
		// the faithful terminating form is ‖Δ‖∞ < ε₃₂·‖rank‖∞ with
		// ε₃₂ = 2⁻²³ ≈ 1.19e-7 — far stricter than the L1 criterion
		// of the other systems, hence the extra iterations in Fig. 4.
		pr.maxDeltaBits, pr.maxRankBits = 0, 0
		inst.trav.Sweep(inst.m, n, gNorm, &vecPass, (*normSweep)(pr))
		maxDelta := math.Float64frombits(atomic.LoadUint64(&pr.maxDeltaBits))
		maxRank := math.Float64frombits(atomic.LoadUint64(&pr.maxRankBits))

		pr.rank, pr.next = pr.next, pr.rank
		res.Iterations = iter
		if maxDelta <= 1.1920929e-7*maxRank {
			break
		}
	}
	for v := 0; v < n; v++ {
		res.Rank[v] = float64(pr.rank[v])
	}
	*pr = prCall{}
	return res, nil
}

// prCall is what a PageRank iteration's bodies read: the vectors, the
// constants of the gather and the ∞-norms the test folds, float64 bits
// raised through sync/atomic's functions rather than atomic.Uint64s so
// that the scratch holding them may be copied on every Bind.
type prCall struct {
	out                       *graph.CSR
	rank, next, contrib       []float32
	base, damping             float32
	maxDeltaBits, maxRankBits uint64
}

// PageRank's three bodies, views of the iteration's record.
type contribSweep prCall
type gatherRows prCall
type normSweep prCall

// Sweep is one chunk of the contribution pass: its share of the
// dangling mass, and rank/degree for every other vertex.
func (pr *contribSweep) Sweep(c *traverse.Chunk, lo, hi int) {
	rank, contrib := pr.rank, pr.contrib
	local := 0.0
	for v := lo; v < hi; v++ {
		d := pr.out.Degree(graph.VID(v))
		if d == 0 {
			local += float64(rank[v])
			contrib[v] = 0
			continue
		}
		contrib[v] = rank[v] / float32(d)
	}
	c.Sum = local
}

// Rows is the SpMV body: each stored row's new rank from its
// in-neighbors' contributions.
func (pr *gatherRows) Rows(c *traverse.Chunk, in *graph.CSR, rows []graph.VID) {
	contrib, next := pr.contrib, pr.next
	var nz int64
	for _, v := range rows {
		adj := c.Row(in, int(v))
		var sum float32
		for _, u := range adj {
			sum += contrib[u]
		}
		nz += int64(len(adj))
		next[v] = pr.base + pr.damping*sum
	}
	c.Work = nz
}

// Sweep is one chunk of the stopping test: the largest rank change and
// the largest rank, raised into the call's ∞-norms.
func (pr *normSweep) Sweep(_ *traverse.Chunk, lo, hi int) {
	rank, next := pr.rank, pr.next
	var localDelta, localRank float32
	for v := lo; v < hi; v++ {
		d := next[v] - rank[v]
		if d < 0 {
			d = -d
		}
		if d > localDelta {
			localDelta = d
		}
		r := next[v]
		if r < 0 {
			r = -r
		}
		if r > localRank {
			localRank = r
		}
	}
	atomicMaxFloat64(&pr.maxDeltaBits, float64(localDelta))
	atomicMaxFloat64(&pr.maxRankBits, float64(localRank))
}

// atomicMaxFloat64 raises the non-negative float64 stored in bits to
// v if v is larger. Non-negative float64 bit patterns order like the
// values themselves, so a plain integer compare suffices.
func atomicMaxFloat64(bits *uint64, v float64) {
	nv := math.Float64bits(v)
	for {
		old := atomic.LoadUint64(bits)
		if old >= nv {
			return
		}
		if atomic.CompareAndSwapUint64(bits, old, nv) {
			return
		}
	}
}
