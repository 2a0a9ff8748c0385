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
func (inst *Instance) SSSP(root graph.VID) (*engines.SSSPResult, error) {
	return inst.SSSPInto(root, nil)
}

// SSSPInto is SSSP writing into dst under BFSInto's ownership rule:
// dst's arrays are reused when large enough, a nil dst gets a fresh
// result, and the instance keeps no reference to either.
func (inst *Instance) SSSPInto(root graph.VID, dst *engines.SSSPResult) (*engines.SSSPResult, error) {
	inst.BuildStructure()
	if !inst.out.Weighted() {
		return nil, engines.ErrUnsupported // unweighted input, as with cit-Patents in Table I
	}
	ws := &inst.ws
	res := traverse.StartSSSP(dst, root, inst.n)
	if inst.opts.SyncSSSP {
		return inst.ssspSync(ws, res)
	}
	n := inst.n
	delta := inst.Delta
	if delta <= 0 {
		delta = DefaultDelta
	}

	ws.dist = traverse.Resized(ws.dist, n)
	dist := ws.dist // float64 bits, for CAS-min
	inf := math.Float64bits(math.Inf(1))
	for i := range dist {
		dist[i] = inf
	}
	dist[root] = math.Float64bits(0)

	loadDist := func(v graph.VID) float64 {
		return math.Float64frombits(atomic.LoadUint64(&dist[v]))
	}
	// casMin lowers dist[v] to nd if it improves it, recording the
	// parent; returns true when it won.
	casMin := func(v graph.VID, nd float64, p graph.VID) bool {
		for {
			oldBits := atomic.LoadUint64(&dist[v])
			if math.Float64frombits(oldBits) <= nd {
				return false
			}
			if atomic.CompareAndSwapUint64(&dist[v], oldBits, math.Float64bits(nd)) {
				atomic.StoreInt64(&res.Parent[v], int64(p))
				return true
			}
		}
	}

	ws.resetBuckets(root)
	relax := inst.trav.Counter(inst.m, 0)
	// Per-chunk bucket-update queues replace the mutex-guarded merge
	// the relaxation passes used before: chunks collect their re-adds
	// and later-bucket insertions locally and the queues concatenate
	// them in chunk order — no lock, no contention, and the merge order
	// is a function of the chunk partition alone (membership stays
	// racy: this is the suite's chaotic CAS relaxation by design).
	reAddQ, reAddBuf := &ws.reAddQ, &ws.reAddBuf
	laterQ, laterBuf := &ws.laterQ, &ws.laterBuf

	bucketOf := func(d float64) int { return int(d / delta) }
	rowBufs := ws.rowBufs(inst.m.Workers())
	const grain = 32 // GrainFixed base; adaptive resolves per pass

	for bi := 0; bi < len(ws.buckets); bi++ {
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
			inst.m.ParallelForChunks(len(current), g, simmachine.Dynamic, func(lo, hi, chunk, worker int, w *simmachine.W) {
				localRe, localLater := reAddBuf.Take(worker), laterBuf.Take(worker)
				startRe, startLater := len(localRe), len(localLater)
				var edges, wins int64
				for _, v := range current[lo:hi] {
					dv := loadDist(v)
					// Skip only entries settled into a LATER bucket:
					// an entry whose distance sits below bi (a heavy
					// relaxation requeued to bi+1) still needs its
					// light edges relaxed here.
					if bucketOf(dv) > bi { // stale entry
						continue
					}
					adj, ws := inst.out.WeightedRowBuf(v, &rowBufs[worker])
					for i, u := range adj {
						wt := float64(ws[i])
						if wt > delta {
							continue // heavy edges handled after settling
						}
						edges++
						nd := dv + wt
						if casMin(u, nd, v) {
							wins++
							// b < bi (reachable only via a distance
							// already below the bucket) keeps settling
							// here — bucket b has already passed.
							if b := bucketOf(nd); b <= bi {
								localRe = append(localRe, u)
							} else {
								localLater = append(localLater, [2]int64{int64(b), int64(u)})
							}
						}
					}
				}
				reAddQ.Put(chunk, reAddBuf.Give(worker, localRe, startRe))
				laterQ.Put(chunk, laterBuf.Give(worker, localLater, startLater))
				relax.Add(worker, edges)
				w.Charge(costRelax.Scale(float64(edges)))
				w.Charge(costClaim.Scale(float64(wins)))
				w.Charge(costBucketOp.Scale(float64(len(localRe) - startRe + len(localLater) - startLater)))
			})
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
			inst.m.ParallelForChunks(len(heavyFrontier), g, simmachine.Dynamic, func(lo, hi, chunk, worker int, w *simmachine.W) {
				local := laterBuf.Take(worker)
				start := len(local)
				var edges, wins int64
				for _, v := range heavyFrontier[lo:hi] {
					dv := loadDist(v)
					adj, ws := inst.out.WeightedRowBuf(v, &rowBufs[worker])
					for i, u := range adj {
						wt := float64(ws[i])
						if wt <= delta {
							continue
						}
						edges++
						nd := dv + wt
						if casMin(u, nd, v) {
							wins++
							local = append(local, [2]int64{int64(bucketOf(nd)), int64(u)})
						}
					}
				}
				laterQ.Put(chunk, laterBuf.Give(worker, local, start))
				relax.Add(worker, edges)
				w.Charge(costRelax.Scale(float64(edges)))
				w.Charge(costClaim.Scale(float64(wins)))
				w.Charge(costBucketOp.Scale(float64(len(local) - start)))
			})
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
	res.Relaxations = relax.Sum()
	return res, nil
}
