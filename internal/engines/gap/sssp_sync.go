package gap

import (
	"math"
	"sync/atomic"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/parallel"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// ssspCand is one candidate relaxation discovered during a gather
// pass: "set dist[u] = nd with parent p".
type ssspCand struct {
	u  graph.VID
	p  graph.VID
	nd float64
}

// ssspSync is the synchronous bucket-barrier variant of delta-stepping
// (Engine.SyncSSSP). The bucket structure is identical to the chaotic
// version; what changes is the inner relaxation pass, which becomes a
// gather/apply pair:
//
//   - gather: chunks of the current bucket relax their light edges
//     against a *snapshot* of the distance array (no writes happen
//     during the pass), collecting candidate updates per chunk;
//   - apply: candidates are merged serially in chunk order — first
//     strict improvement wins — updating distances, parents, and
//     bucket membership.
//
// Because the candidate sets are a pure function of the pass-start
// distances and the apply order is fixed, every observable — parents,
// relaxation counts, bucket composition, and the modeled durations of
// both the parallel gather and the serial merge — is independent of
// the real goroutine schedule and worker count. This is the mode the
// determinism wall runs. The price is the serial merge (a real
// bucket-barrier, charged at single-thread speed), which the chaotic
// default does not pay.
func (inst *Instance) ssspSync(ws *workspace, res *engines.SSSPResult) (*engines.SSSPResult, error) {
	n := inst.n
	root := res.Root
	delta := inst.eng.Delta
	if delta <= 0 {
		delta = DefaultDelta
	}

	dist := res.Dist // plain float64: sync mode never writes concurrently
	for i := range dist {
		dist[i] = math.Inf(1)
		res.Parent[i] = engines.NoParent
	}
	dist[root] = 0
	res.Parent[root] = int64(root)

	var relaxed int64
	ws.resetBuckets(root)
	// queued dedupes same-pass re-adds; stamped with the pass number,
	// which keeps counting across calls so the array is never cleared.
	ws.queued = resized(ws.queued, n)
	queued := ws.queued

	bucketOf := func(d float64) int { return int(d / delta) }

	// gather collects candidate relaxations of frontier's light
	// (heavy=false) or heavy (heavy=true) edges against the current
	// distance snapshot into the chunk-ordered queue (the serial apply
	// consumes it in chunk order — the same canonical order the old
	// per-chunk slice-of-slices gave, through the shared primitive).
	cands, candBuf := &ws.cands, &ws.candBuf
	gather := func(frontier []graph.VID, bi int, heavy bool) {
		g := inst.m.Grain(len(frontier), 32, 1)
		cands.Reset(parallel.NumChunks(len(frontier), g))
		candBuf.Reset(ws.workers)
		inst.m.ParallelForChunks(len(frontier), g, simmachine.Dynamic, func(lo, hi, chunk, worker int, w *simmachine.W) {
			local := candBuf.Take(worker)
			start := len(local)
			var edges int64
			for _, v := range frontier[lo:hi] {
				dv := dist[v]
				// Skip only entries settled into a LATER bucket. An
				// entry whose distance sits in an earlier bucket (a
				// heavy relaxation that landed at or below bi and was
				// requeued to bi+1) must still relax its light edges
				// here, or that work would be dropped forever.
				if !heavy && bucketOf(dv) > bi {
					continue
				}
				adj := inst.out.Neighbors(v)
				ws := inst.out.NeighborWeights(v)
				for i, u := range adj {
					wt := float64(ws[i])
					if (wt > delta) != heavy {
						continue
					}
					edges++
					nd := dv + wt
					if nd < dist[u] {
						local = append(local, ssspCand{u: u, p: v, nd: nd})
					}
				}
			}
			cands.Put(chunk, candBuf.Give(worker, local, start))
			// Commutative sum of a deterministic edge set: the total
			// is schedule-independent even though the adds race.
			atomic.AddInt64(&relaxed, edges)
			w.Charge(costRelax.Scale(float64(edges)))
			w.Charge(costBucketOp.Scale(float64(len(local) - start)))
		})
	}

	for bi := 0; bi < len(ws.buckets); bi++ {
		// Nothing is put into bucket bi while it settles (re-adds go
		// through ws.reAdd, the rest to later buckets), so truncating it
		// now keeps its array for the next call without touching current.
		current := ws.buckets[bi]
		ws.buckets[bi] = current[:0]
		heavyFrontier := ws.heavy[:0]
		for len(current) > 0 {
			// Same bucket-granularity cancellation point as the chaotic
			// variant; the check itself charges nothing, so modeled
			// durations are untouched when no deadline fires.
			if err := inst.checkCancel("SSSP"); err != nil {
				return nil, err
			}
			heavyFrontier = append(heavyFrontier, current...)
			pass := ws.nextPass()
			gather(current, bi, false)
			// Serial apply in chunk order: the bucket barrier. current
			// is dead once gathered, so the re-adds may land in the very
			// array it came from.
			reAdd := ws.reAdd[:0]
			inst.m.Serial(func(w *simmachine.W) {
				var wins int
				for _, chunk := range cands.Chunks() {
					for _, c := range chunk {
						if c.nd >= dist[c.u] {
							continue // a chunk-earlier candidate won
						}
						dist[c.u] = c.nd
						res.Parent[c.u] = int64(c.p)
						wins++
						// b < bi is only reachable from an entry whose
						// distance already sat below the bucket; keep
						// settling it here — bucket b has passed.
						if b := bucketOf(c.nd); b <= bi {
							if queued[c.u] != pass {
								queued[c.u] = pass
								reAdd = append(reAdd, c.u)
							}
						} else {
							ws.putBucket(b, c.u)
						}
					}
				}
				w.Charge(costClaim.Scale(float64(wins)))
				w.Charge(costBucketOp.Scale(float64(cands.Len())))
			})
			ws.reAdd = reAdd
			current = reAdd
		}
		ws.heavy = heavyFrontier
		// One synchronous pass over the settled bucket's heavy edges.
		if len(heavyFrontier) > 0 {
			gather(heavyFrontier, bi, true)
			inst.m.Serial(func(w *simmachine.W) {
				var wins int
				for _, chunk := range cands.Chunks() {
					for _, c := range chunk {
						if c.nd >= dist[c.u] {
							continue
						}
						dist[c.u] = c.nd
						res.Parent[c.u] = int64(c.p)
						wins++
						// Float rounding can land a heavy relaxation in
						// the current bucket range; reprocess it in the
						// next bucket, as the chaotic variant does.
						ws.putBucket(max(bucketOf(c.nd), bi+1), c.u)
					}
				}
				w.Charge(costClaim.Scale(float64(wins)))
				w.Charge(costBucketOp.Scale(float64(cands.Len())))
			})
		}
	}

	res.Relaxations = relaxed
	return res, nil
}
