package graphbig

import (
	"math"
	"sync/atomic"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/parallel"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// ssspCand is one candidate relaxation found during a gather round.
type ssspCand struct {
	u  graph.VID
	p  graph.VID
	nd float64
}

// ssspSync is the synchronous round-barrier variant of System G's
// relaxation (Engine.SyncSSSP): Bellman-Ford rounds over an active
// frontier, where each round gathers candidate updates against a
// snapshot of the distance array and applies them serially in chunk
// order — first strict improvement wins. The next frontier is the set
// of improved vertices in apply order, deduplicated by a round stamp.
//
// Every observable — distances, parents, relaxation counts, frontier
// composition, and modeled durations — is a pure function of the
// input, so this mode joins the determinism wall. The per-edge cost
// charged is unchanged from the chaotic variant: the modeled System G
// still pays its property-lock traffic per edge; what the barrier buys
// is reproducibility, at the price of a serial merge per round.
func (inst *Instance) ssspSync(root graph.VID) (*engines.SSSPResult, error) {
	n := inst.n
	res := &engines.SSSPResult{
		Root:   root,
		Dist:   make([]float64, n),
		Parent: make([]int64, n),
	}
	dist := res.Dist // plain float64: sync mode never writes concurrently
	for i := range dist {
		dist[i] = math.Inf(1)
		res.Parent[i] = engines.NoParent
	}
	dist[root] = 0
	res.Parent[root] = int64(root)

	var relaxed int64
	active := []graph.VID{root}
	queued := make([]int32, n)
	round := int32(0)
	cands := parallel.NewChunkQueue[ssspCand]()
	var candBuf parallel.Arena[ssspCand]
	for len(active) > 0 {
		round++
		g := inst.m.Grain(len(active), 32, 1)
		cands.Reset(parallel.NumChunks(len(active), g))
		candBuf.Reset(inst.m.Workers())
		inst.m.ParallelForChunks(len(active), g, simmachine.Dynamic, func(lo, hi, chunk, worker int, w *simmachine.W) {
			local := candBuf.Take(worker)
			start := len(local)
			var edges int64
			for _, v := range active[lo:hi] {
				dv := dist[v]
				vp := &inst.vertices[v]
				for i, u := range vp.out {
					edges++
					nd := dv + float64(vp.w[i])
					if nd < dist[u] {
						local = append(local, ssspCand{u: u, p: v, nd: nd})
					}
				}
			}
			cands.Put(chunk, candBuf.Give(worker, local, start))
			// Commutative sum of a deterministic edge set.
			atomic.AddInt64(&relaxed, edges)
			w.Charge(costSSSPEdge.Scale(float64(edges)))
			w.Charge(costPropTouch.Scale(float64(hi - lo)))
		})
		// Round barrier: serial apply in chunk order (the queue's
		// canonical concatenation).
		var next []graph.VID
		inst.m.Serial(func(w *simmachine.W) {
			for _, chunk := range cands.Chunks() {
				for _, c := range chunk {
					if c.nd >= dist[c.u] {
						continue // a chunk-earlier candidate won
					}
					dist[c.u] = c.nd
					res.Parent[c.u] = int64(c.p)
					if queued[c.u] != round {
						queued[c.u] = round
						next = append(next, c.u)
					}
				}
			}
			w.Charge(costPropTouch.Scale(float64(cands.Len())))
		})
		active = next
	}

	res.Relaxations = relaxed
	return res, nil
}
