package powergraph

import (
	"math"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/traverse"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/parallel"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// SSSP implements engines.Instance as a synchronous GAS vertex
// program: gather takes the min over in-edges from active sources into
// each shard's replica slot, the ghost-sync combine folds the replicas
// in shard order, apply commits the improvement, scatter re-activates
// improved vertices. Distances are read from the previous superstep
// only, so supersteps — and with them distances, parents (min-source
// tie-break), and every charged cost — are schedule-independent.
func (inst *Instance) SSSP(root graph.VID, dst *engines.SSSPResult) (*engines.SSSPResult, error) {
	if !inst.weighted {
		return nil, engines.ErrUnsupported
	}
	n := inst.n
	res := traverse.StartSSSP(dst, root, n)
	inf := math.Inf(1)

	inst.accF = traverse.Resized(inst.accF, int(inst.TotalRep))
	inst.accP = traverse.Resized(inst.accP, int(inst.TotalRep))
	accD, accP := inst.accF, inst.accP
	for i := range accD {
		accD[i] = inf
	}
	clear(accP)

	// Active sets are bitmaps (parallel.Bitmap), the dense frontier
	// representation: the gather sweep tests one bit per edge source
	// and the apply phase re-arms its own chunk's word range in-region
	// (apply grains are multiples of 64 — the fixed 2048 base and the
	// 64-aligned adaptive resolution alike — so chunks never share a
	// word), and superstep activation costs no per-vertex bool traffic
	// and no extra clearing pass.
	active, next := inst.trav.Bitmaps(n)
	active.Set(int(root))
	var relaxations int64
	sc := &inst.sssp
	*sc = ssspCall{partition: inst.partition, res: res, next: next, accD: accD, accP: accP}
	for {
		relaxations += inst.gatherSweep(active, sc)
		// Ghost sync + apply + scatter: combine each vertex's replica
		// accumulators in shard order, commit improvements, activate.
		// align 64: each chunk re-arms its own word range of `next`.
		sc.applied = inst.trav.Counter(inst.m, 0)
		inst.m.For(n, inst.m.Grain(n, 2048, 64), simmachine.Dynamic, sc)
		if sc.applied.Sum() == 0 {
			break
		}
		active, next = next, active
		sc.next = next
	}
	*sc = ssspCall{}
	res.Relaxations = relaxations
	return res, nil
}

// ssspCall is what an SSSP superstep's bodies read: the replica slots,
// the result, the frontier being armed and the count of improvements.
type ssspCall struct {
	*partition
	accD    []float64
	accP    []int64
	res     *engines.SSSPResult
	next    *parallel.Bitmap
	applied *parallel.Counter
}

// gather relaxes one active edge into its shard's replica slot of the
// destination: the min distance, ties to the min source.
func (call *ssspCall) gather(s int, e shardEdge) {
	nd := call.res.Dist[e.src] + float64(e.w)
	i := call.slot(e.dst, s)
	if nd < call.accD[i] || (nd == call.accD[i] && int64(e.src) < call.accP[i]) {
		call.accD[i] = nd
		call.accP[i] = int64(e.src)
	}
}

// Chunk folds one chunk's replica slots, commits the improvements and
// arms them in the next frontier.
func (call *ssspCall) Chunk(lo, hi, _, worker int, w *simmachine.W) {
	dist, parent, next, accD, accP := call.res.Dist, call.res.Parent, call.next, call.accD, call.accP
	inf := math.Inf(1)
	next.ClearRange(lo, hi)
	var applied, reps int64
	for v := lo; v < hi; v++ {
		best := inf
		var bp int64
		slo, shi := call.slotRange(graph.VID(v))
		reps += shi - slo
		for i := slo; i < shi; i++ {
			if accD[i] < best || (accD[i] == best && accP[i] < bp) {
				best, bp = accD[i], accP[i]
			}
			accD[i] = inf
		}
		if best < dist[v] {
			dist[v] = best
			parent[v] = bp
			next.Set(v)
			applied++
		}
	}
	call.applied.Add(worker, applied)
	w.Charge(costSyncReplica.Scale(float64(reps)))
	w.Charge(costApplyVertex.Scale(float64(applied)))
	w.Cycles(float64(hi-lo) * 1)
}

// PageRank implements engines.Instance: sum-gather over in-edges into
// shard-local replica accumulators, ghost-sync combine in shard order
// (bit-deterministic float64 sums), apply with the homogenized float64
// L1 stopping criterion (the paper modified each system to use it
// where possible).
func (inst *Instance) PageRank(opts engines.PROpts, dst *engines.PRResult) (*engines.PRResult, error) {
	opts = opts.Normalize()
	n := inst.n
	res := traverse.Result(dst)
	res.Rank, res.Iterations = traverse.Resized(res.Rank, n), 0
	if n == 0 {
		return res, nil
	}
	inv := 1.0 / float64(n)
	rank := res.Rank
	for i := range rank {
		rank[i] = inv
	}
	inst.contrib = traverse.Resized(inst.contrib, n)
	inst.accF = traverse.Resized(inst.accF, int(inst.TotalRep))
	clear(inst.accF)

	pr := &inst.pr
	*pr = prCall{partition: inst.partition, out: inst.out, acc: inst.accF, contrib: inst.contrib, rank: rank, damping: opts.Damping}
	gContrib := inst.m.Grain(n, 4096, 1)
	gApply := inst.m.Grain(n, 2048, 1)
	for iter := 1; iter <= opts.MaxIter; iter++ {
		dangling, _ := inst.trav.Sweep(inst.m, n, gContrib, &prContrib, (*contribSweep)(pr))
		pr.base = (1-opts.Damping)*inv + opts.Damping*dangling*inv
		inst.gatherSweep(nil, pr)
		l1, _ := inst.trav.Sweep(inst.m, n, gApply, &prApply, (*applySweep)(pr))
		res.Iterations = iter
		if l1 < opts.Epsilon {
			break
		}
	}
	*pr = prCall{}
	return res, nil
}

// prCall is what a PageRank iteration's bodies read.
type prCall struct {
	*partition
	out                *graph.CSR
	acc, contrib, rank []float64
	base, damping      float64
}

// PageRank's sweep bodies, views of the iteration's record.
type contribSweep prCall
type applySweep prCall

// Sweep is one chunk of the contribution pass: its share of the
// dangling mass, and rank/degree for every other vertex.
func (pr *contribSweep) Sweep(c *traverse.Chunk, lo, hi int) {
	rank, contrib := pr.rank, pr.contrib
	local := 0.0
	for v := lo; v < hi; v++ {
		d := pr.out.Degree(graph.VID(v))
		if d == 0 {
			local += rank[v]
			contrib[v] = 0
			continue
		}
		contrib[v] = rank[v] / float64(d)
	}
	c.Sum = local
}

// gather adds one edge's contribution to its shard's replica slot of
// the destination.
func (pr *prCall) gather(s int, e shardEdge) {
	pr.acc[pr.slot(e.dst, s)] += pr.contrib[e.src]
}

// Sweep is one chunk of the ghost sync and apply: it folds the replica
// partial sums in shard order, commits the new ranks and sums their L1
// change.
func (pr *applySweep) Sweep(c *traverse.Chunk, lo, hi int) {
	acc, rank := pr.acc, pr.rank
	local := 0.0
	var reps int64
	for v := lo; v < hi; v++ {
		sum := 0.0
		slo, shi := pr.slotRange(graph.VID(v))
		reps += shi - slo
		for i := slo; i < shi; i++ {
			sum += acc[i]
			acc[i] = 0
		}
		nv := pr.base + pr.damping*sum
		local += math.Abs(nv - rank[v])
		rank[v] = nv
	}
	c.Sum, c.Work = local, reps
}

// CDLP implements engines.Instance: the gather phase accumulates a
// label histogram per vertex (shipping per-edge label messages), the
// apply phase picks the most frequent label with min tie-break — the
// shared vote step, with a ghost exchange after every round. Directed
// graphs gather from both directions (LDBC semantics); the adjacency
// retained at load supplies the reverse edges.
func (inst *Instance) CDLP(maxIter int, dst *engines.CDLPResult) (*engines.CDLPResult, error) {
	n := inst.n
	res := traverse.Result(dst)
	// label is dst's; the other of the pair is kept.
	res.Label, res.Iterations = traverse.Resized(res.Label, n), 0
	inst.spare = traverse.Resized(inst.spare, n)
	label, next := res.Label, inst.spare
	for i := range label {
		label[i] = graph.VID(i)
	}
	var in traverse.Rows
	if inst.directed {
		in = inst.in
	}
	for iter := 1; iter <= maxIter; iter++ {
		changed := inst.trav.Vote(inst.m, 512, &cdlpVote, inst.out, in, label, next)
		inst.syncGhosts()
		label, next = next, label
		res.Iterations = iter
		if changed == 0 {
			break
		}
	}
	res.Label = traverse.Settled(res.Label, label)
	return res, nil
}

// LCC implements engines.Instance: neighborhood intersection — the
// shared link-count step — with GAS-grade per-check cost.
func (inst *Instance) LCC(dst *engines.LCCResult) (*engines.LCCResult, error) {
	res := traverse.Result(dst)
	res.Coeff = traverse.Resized(res.Coeff, inst.n)
	inst.trav.LinkCount(inst.m, 64, &lccLinks, inst.out, inst.in, res.Coeff)
	return res, nil
}

// WCC implements engines.Instance: min-label GAS supersteps over both
// edge directions until quiescent, with the min flowing through
// shard-local replica slots and the ghost-sync combine (labels are
// read from the previous superstep only — synchronous and
// deterministic).
func (inst *Instance) WCC(dst *engines.WCCResult) (*engines.WCCResult, error) {
	n := inst.n
	res := traverse.Result(dst)
	res.Component = traverse.Resized(res.Component, n)
	comp := res.Component
	for i := range comp {
		comp[i] = graph.VID(i)
	}
	inst.accC = traverse.Resized(inst.accC, int(inst.TotalRep))
	for i := range inst.accC {
		inst.accC[i] = noLabel
	}
	wc := &inst.wcc
	*wc = wccCall{partition: inst.partition, acc: inst.accC, comp: comp}
	for {
		// Full gather each superstep: min must flow across an edge
		// whenever either endpoint changed, so the sweep processes
		// every local edge (PowerGraph's dense-gather mode).
		inst.gatherSweep(nil, wc)
		wc.applied = inst.trav.Counter(inst.m, 0)
		inst.m.For(n, inst.m.Grain(n, 2048, 1), simmachine.Dynamic, wc)
		if wc.applied.Sum() == 0 {
			break
		}
	}
	*wc = wccCall{}
	return res, nil
}

// noLabel is an empty WCC replica slot.
const noLabel = ^graph.VID(0)

// wccCall is what a WCC superstep's bodies read.
type wccCall struct {
	*partition
	acc     []uint32
	comp    []graph.VID
	applied *parallel.Counter
}

// gather propagates the min label across one edge both ways (weak
// connectivity) into the shard's replica slots.
func (wc *wccCall) gather(s int, e shardEdge) {
	comp, accC := wc.comp, wc.acc
	if c := comp[e.src]; c < accC[wc.slot(e.dst, s)] {
		accC[wc.slot(e.dst, s)] = c
	}
	if c := comp[e.dst]; c < accC[wc.slot(e.src, s)] {
		accC[wc.slot(e.src, s)] = c
	}
}

// Chunk folds one chunk's replica slots and commits the lowered labels.
func (wc *wccCall) Chunk(lo, hi, _, worker int, w *simmachine.W) {
	comp, accC := wc.comp, wc.acc
	var applied, reps int64
	for v := lo; v < hi; v++ {
		best := noLabel
		slo, shi := wc.slotRange(graph.VID(v))
		reps += shi - slo
		for i := slo; i < shi; i++ {
			if accC[i] < best {
				best = accC[i]
			}
			accC[i] = noLabel
		}
		if best < comp[v] {
			comp[v] = best
			applied++
		}
	}
	wc.applied.Add(worker, applied)
	w.Charge(costSyncReplica.Scale(float64(reps)))
	w.Charge(costApplyVertex.Scale(float64(applied)))
}
