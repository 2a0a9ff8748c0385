package gap

import (
	"math"
	"sync/atomic"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/traverse"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/parallel"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// SSSP implements engines.Instance with delta-stepping (Meyer &
// Sanders), the algorithm of the GAP suite: tentative distances live
// in an atomically CAS-min'ed float64 array; vertices are binned into
// buckets of width Δ; each bucket is settled by repeated parallel
// relaxation passes of its light edges, then heavy edges are relaxed
// once.
func (inst *Instance) SSSP(root graph.VID, dst *engines.SSSPResult) (*engines.SSSPResult, error) {
	inst.BuildStructure()
	if !inst.out.Weighted() {
		return nil, engines.ErrUnsupported // unweighted input, as with cit-Patents in Table I
	}
	ws := &inst.ws
	res := traverse.StartSSSP(dst, root, inst.n)
	if inst.opts.SyncSSSP {
		return inst.ssspSync(ws, res)
	}
	out, err := inst.ssspChaotic(ws, res)
	ws.chaos = chaosCall{} // the caller's arrays are not kept
	return out, err
}

// chaosCall is what one chaotic relaxation pass's chunks read besides
// the buckets and queues: the CAS-min'ed distance bits, the result's
// parents, the entries the pass relaxes (the bucket being settled, or
// its heavy frontier), the relaxation counter and the row buffers.
type chaosCall struct {
	out      *graph.CSR
	dist     []uint64
	parent   []int64
	frontier []graph.VID
	relax    *parallel.Counter
	rows     []graph.RowBuf
}

// The chaotic variant's two pass bodies, views of the workspace.
type chaosLight workspace
type chaosHeavy workspace

// load reads v's tentative distance.
func (cc *chaosCall) load(v graph.VID) float64 {
	return math.Float64frombits(atomic.LoadUint64(&cc.dist[v]))
}

// casMin lowers v's distance to nd if it improves it, recording the
// parent p; it returns true when it won.
func (cc *chaosCall) casMin(v graph.VID, nd float64, p graph.VID) bool {
	for {
		oldBits := atomic.LoadUint64(&cc.dist[v])
		if math.Float64frombits(oldBits) <= nd {
			return false
		}
		if atomic.CompareAndSwapUint64(&cc.dist[v], oldBits, math.Float64bits(nd)) {
			atomic.StoreInt64(&cc.parent[v], int64(p))
			return true
		}
	}
}

// ssspChaotic is the suite's delta-stepping with CAS relaxations: the
// two pass bodies (chaosLight, chaosHeavy) read the pass from ws.chaos,
// the bucket from ws.bucket.
func (inst *Instance) ssspChaotic(ws *workspace, res *engines.SSSPResult) (*engines.SSSPResult, error) {
	n := inst.n
	ws.delta = inst.Delta
	if ws.delta <= 0 {
		ws.delta = DefaultDelta
	}

	ws.dist = traverse.Resized(ws.dist, n)
	dist := ws.dist // float64 bits, for CAS-min
	inf := math.Float64bits(math.Inf(1))
	for i := range dist {
		dist[i] = inf
	}
	dist[res.Root] = math.Float64bits(0)

	ws.resetBuckets(res.Root)
	cc := &ws.chaos
	*cc = chaosCall{out: inst.out, dist: dist, parent: res.Parent, relax: inst.trav.Counter(inst.m, 0), rows: inst.trav.RowBufs(inst.m)}
	// Per-chunk bucket-update queues replace the mutex-guarded merge
	// the relaxation passes used before: chunks collect their re-adds
	// and later-bucket insertions locally and the queues concatenate
	// them in chunk order — no lock, no contention, and the merge order
	// is a function of the chunk partition alone (membership stays
	// racy: this is the suite's chaotic CAS relaxation by design).
	reAddQ, reAddBuf := &ws.reAddQ, &ws.reAddBuf
	laterQ, laterBuf := &ws.laterQ, &ws.laterBuf
	const grain = 32 // GrainFixed base; adaptive resolves per pass

	for ws.bucket = 0; ws.bucket < len(ws.buckets); ws.bucket++ {
		bi := ws.bucket
		// Settle light edges of bucket bi to a fixed point.
		// Nothing is put into bucket bi while it settles (re-adds go
		// through ws.reAdd, the rest to later buckets), so truncating it
		// now keeps its array for the next call without touching current.
		current := ws.buckets[bi]
		ws.buckets[bi] = current[:0]
		heavyFrontier := ws.heavy[:0]
		for len(current) > 0 {
			// Polled per relaxation pass (bucket granularity), between
			// regions — the SSSP analogue of the per-level BFS check.
			if err := inst.trav.Poll("gap: SSSP"); err != nil {
				return nil, err
			}
			heavyFrontier = append(heavyFrontier, current...)
			g := inst.m.Grain(len(current), grain, 1)
			nchunks := parallel.NumChunks(len(current), g)
			reAddQ.Reset(nchunks)
			laterQ.Reset(nchunks)
			reAddBuf.Reset(inst.m.Workers())
			laterBuf.Reset(inst.m.Workers())
			cc.frontier = current
			inst.m.For(len(current), g, simmachine.Dynamic, (*chaosLight)(ws))
			for _, later := range laterQ.Chunks() {
				for _, bv := range later {
					ws.putBucket(int(bv[0]), graph.VID(bv[1]))
				}
			}
			// The pass that read current is over, so the re-adds may
			// land in the very array current came from.
			ws.reAdd = reAddQ.AppendTo(ws.reAdd[:0])
			current = ws.reAdd
		}
		ws.heavy = heavyFrontier
		// One pass of heavy edges from everything settled in bi.
		if len(heavyFrontier) > 0 {
			g := inst.m.Grain(len(heavyFrontier), grain, 1)
			laterQ.Reset(parallel.NumChunks(len(heavyFrontier), g))
			laterBuf.Reset(inst.m.Workers())
			cc.frontier = heavyFrontier
			inst.m.For(len(heavyFrontier), g, simmachine.Dynamic, (*chaosHeavy)(ws))
			for _, later := range laterQ.Chunks() {
				for _, bv := range later {
					// Rare: a heavy relaxation landed in the current
					// bucket range due to float rounding; reprocess it
					// in the next bucket.
					ws.putBucket(max(int(bv[0]), bi+1), graph.VID(bv[1]))
				}
			}
		}
	}

	for v := 0; v < n; v++ {
		res.Dist[v] = math.Float64frombits(dist[v])
	}
	res.Relaxations = cc.relax.Sum()
	return res, nil
}

// Chunk relaxes the light edges of one chunk of the bucket being
// settled.
func (ws *chaosLight) Chunk(lo, hi, chunk, worker int, w *simmachine.W) {
	cc, bi, delta := &ws.chaos, ws.bucket, ws.delta
	localRe, localLater := ws.reAddBuf.Take(worker), ws.laterBuf.Take(worker)
	var edges, wins int64
	for _, v := range cc.frontier[lo:hi] {
		dv := cc.load(v)
		// Skip only entries settled into a LATER bucket: an entry whose
		// distance sits below bi (a heavy relaxation requeued to bi+1)
		// still needs its light edges relaxed here.
		if bucketOf(dv, delta) > bi { // stale entry
			continue
		}
		adj, wts := cc.out.WeightedRowBuf(v, &cc.rows[worker])
		for i, u := range adj {
			wt := float64(wts[i])
			if wt > delta {
				continue // heavy edges handled after settling
			}
			edges++
			nd := dv + wt
			if cc.casMin(u, nd, v) {
				wins++
				// b < bi (reachable only via a distance already below
				// the bucket) keeps settling here — bucket b has
				// already passed.
				if b := bucketOf(nd, delta); b <= bi {
					localRe = append(localRe, u)
				} else {
					localLater = append(localLater, [2]int64{int64(b), int64(u)})
				}
			}
		}
	}
	ws.reAddQ.Put(chunk, ws.reAddBuf.Keep(worker, localRe))
	ws.laterQ.Put(chunk, ws.laterBuf.Keep(worker, localLater))
	cc.relax.Add(worker, edges)
	w.Charge(costRelax.Scale(float64(edges)))
	w.Charge(costClaim.Scale(float64(wins)))
	w.Charge(costBucketOp.Scale(float64(len(localRe) + len(localLater))))
}

// Chunk relaxes the heavy edges of one chunk of the settled bucket's
// heavy frontier.
func (ws *chaosHeavy) Chunk(lo, hi, chunk, worker int, w *simmachine.W) {
	cc, delta := &ws.chaos, ws.delta
	local := ws.laterBuf.Take(worker)
	var edges, wins int64
	for _, v := range cc.frontier[lo:hi] {
		dv := cc.load(v)
		adj, wts := cc.out.WeightedRowBuf(v, &cc.rows[worker])
		for i, u := range adj {
			wt := float64(wts[i])
			if wt <= delta {
				continue
			}
			edges++
			nd := dv + wt
			if cc.casMin(u, nd, v) {
				wins++
				local = append(local, [2]int64{int64(bucketOf(nd, delta)), int64(u)})
			}
		}
	}
	ws.laterQ.Put(chunk, ws.laterBuf.Keep(worker, local))
	cc.relax.Add(worker, edges)
	w.Charge(costRelax.Scale(float64(edges)))
	w.Charge(costClaim.Scale(float64(wins)))
	w.Charge(costBucketOp.Scale(float64(len(local))))
}
