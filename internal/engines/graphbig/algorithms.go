package graphbig

import (
	"math"
	"sync/atomic"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/parallel"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// PageRank implements engines.Instance: edge-wise accumulation into
// float32 vertex properties — System G stores single-precision rank
// properties, so the paper's ε = 6e-8 stopping threshold sits at
// float32's precision floor and GraphBIG needs more iterations than
// the float64 engines to get under it. The accumulation gathers along
// in-edges (each vertex folds its own property in adjacency order), so
// the per-edge lock traffic System G pays is charged per edge while
// the float32 sums stay bit-identical across runs and worker counts.
func (inst *Instance) PageRank(opts engines.PROpts) (*engines.PRResult, error) {
	opts = opts.Normalize()
	n := inst.n
	if n == 0 {
		return &engines.PRResult{}, nil
	}
	inv := float32(1.0 / float64(n))
	rank := make([]float32, n)
	next := make([]float32, n)
	for i := range rank {
		rank[i] = inv
	}
	res := &engines.PRResult{}
	gRed := inst.m.Grain(n, 4096, 1)
	gGather := inst.m.Grain(n, 512, 1)
	for iter := 1; iter <= opts.MaxIter; iter++ {
		// Dangling mass (float64 reduction of float32 properties,
		// folded in chunk order for determinism).
		dr := parallel.NewReducer[float64](parallel.NumChunks(n, gRed))
		inst.m.ParallelForChunks(n, gRed, simmachine.Dynamic, func(lo, hi, chunk, worker int, w *simmachine.W) {
			local := 0.0
			for v := lo; v < hi; v++ {
				if len(inst.vertices[v].out) == 0 {
					local += float64(rank[v])
				}
			}
			*dr.At(chunk) = local
			w.Charge(costPRVertex.Scale(float64(hi-lo) * 0.25))
		})
		dangling := parallel.SumFloat64(dr)
		base := float32((1-opts.Damping)/float64(n) + opts.Damping*dangling/float64(n))

		// Gather phase: fold in-neighbor shares in float32, per-vertex
		// property updates under System G's per-edge lock cost.
		inst.m.ParallelFor(n, gGather, simmachine.Dynamic, func(lo, hi int, w *simmachine.W) {
			var edges int64
			for v := lo; v < hi; v++ {
				var sum float32
				for _, u := range inst.inNeighbors(graph.VID(v)) {
					sum += rank[u] / float32(len(inst.vertices[u].out))
				}
				edges += int64(len(inst.inNeighbors(graph.VID(v))))
				next[v] = base + float32(opts.Damping)*sum
			}
			w.Charge(costPREdge.Scale(float64(edges)))
			w.Charge(costPRVertex.Scale(float64(hi - lo)))
		})

		// L1 over float32 properties, accumulated in float64.
		lr := parallel.NewReducer[float64](parallel.NumChunks(n, gRed))
		inst.m.ParallelForChunks(n, gRed, simmachine.Dynamic, func(lo, hi, chunk, worker int, w *simmachine.W) {
			local := 0.0
			for v := lo; v < hi; v++ {
				local += math.Abs(float64(next[v]) - float64(rank[v]))
			}
			*lr.At(chunk) = local
			w.Charge(costPRVertex.Scale(float64(hi-lo) * 0.5))
		})
		l1 := parallel.SumFloat64(lr)

		rank, next = next, rank
		res.Iterations = iter
		if l1 < opts.Epsilon {
			break
		}
	}
	res.Rank = make([]float64, n)
	for v := 0; v < n; v++ {
		res.Rank[v] = float64(rank[v])
	}
	return res, nil
}

// CDLP implements engines.Instance: synchronous label propagation
// with per-vertex histogram maps (System G's property-map style).
func (inst *Instance) CDLP(maxIter int) (*engines.CDLPResult, error) {
	n := inst.n
	label := make([]graph.VID, n)
	next := make([]graph.VID, n)
	for i := range label {
		label[i] = graph.VID(i)
	}
	res := &engines.CDLPResult{}
	for iter := 1; iter <= maxIter; iter++ {
		var changed int64
		inst.m.ParallelFor(n, 256, simmachine.Dynamic, func(lo, hi int, w *simmachine.W) {
			counts := make(map[graph.VID]int)
			var edges, localChanged int64
			for v := lo; v < hi; v++ {
				clear(counts)
				for _, u := range inst.vertices[v].out {
					counts[label[u]]++
				}
				edges += int64(len(inst.vertices[v].out))
				if inst.directed {
					for _, u := range inst.vertices[v].in {
						counts[label[u]]++
					}
					edges += int64(len(inst.vertices[v].in))
				}
				nl := engines.PickLabel(counts, label[v])
				next[v] = nl
				if nl != label[v] {
					localChanged++
				}
			}
			atomic.AddInt64(&changed, localChanged)
			w.Charge(costCDLPEdge.Scale(float64(edges)))
			w.Charge(costPropTouch.Scale(float64(hi - lo)))
		})
		label, next = next, label
		res.Iterations = iter
		if changed == 0 {
			break
		}
	}
	res.Label = label
	return res, nil
}

// LCC implements engines.Instance: per-vertex hash-set membership
// tests over the distinct in∪out neighborhood.
func (inst *Instance) LCC() (*engines.LCCResult, error) {
	n := inst.n
	coeff := make([]float64, n)
	inst.m.ParallelFor(n, 64, simmachine.Dynamic, func(lo, hi int, w *simmachine.W) {
		set := make(map[graph.VID]struct{})
		var checks int64
		for v := lo; v < hi; v++ {
			nbrs := inst.neighborhood(graph.VID(v))
			d := len(nbrs)
			if d < 2 {
				continue
			}
			clear(set)
			for _, u := range nbrs {
				set[u] = struct{}{}
			}
			links := 0
			for _, u := range nbrs {
				for _, x := range inst.vertices[u].out {
					checks++
					if x == u || x == graph.VID(v) {
						continue
					}
					if _, ok := set[x]; ok {
						links++
					}
				}
			}
			coeff[v] = float64(links) / float64(d*(d-1))
		}
		w.Charge(costLCCCheck.Scale(float64(checks)))
		w.Charge(costPropTouch.Scale(float64(hi - lo)))
	})
	return &engines.LCCResult{Coeff: coeff}, nil
}

// neighborhood returns distinct in∪out neighbors of v excluding v
// (adjacency lists are sorted and deduplicated at load).
func (inst *Instance) neighborhood(v graph.VID) []graph.VID {
	vp := &inst.vertices[v]
	if !inst.directed {
		return vp.out // sorted, simple graph: v itself was dropped
	}
	return engines.Neighborhood(vp.out, vp.in, v)
}

// WCC implements engines.Instance: plain min-label propagation (no
// pointer jumping) until quiescent.
func (inst *Instance) WCC() (*engines.WCCResult, error) {
	n := inst.n
	comp := make([]uint32, n)
	for i := range comp {
		comp[i] = uint32(i)
	}
	for {
		var changed int64
		inst.m.ParallelFor(n, 1024, simmachine.Dynamic, func(lo, hi int, w *simmachine.W) {
			var edges, localChanged int64
			for v := lo; v < hi; v++ {
				min := atomic.LoadUint32(&comp[v])
				for _, u := range inst.vertices[v].out {
					if c := atomic.LoadUint32(&comp[u]); c < min {
						min = c
					}
				}
				edges += int64(len(inst.vertices[v].out))
				if inst.directed {
					for _, u := range inst.vertices[v].in {
						if c := atomic.LoadUint32(&comp[u]); c < min {
							min = c
						}
					}
					edges += int64(len(inst.vertices[v].in))
				}
				if min < comp[v] {
					atomic.StoreUint32(&comp[v], min)
					localChanged++
				}
			}
			atomic.AddInt64(&changed, localChanged)
			w.Charge(costWCCEdge.Scale(float64(edges)))
		})
		if changed == 0 {
			break
		}
	}
	res := &engines.WCCResult{Component: make([]graph.VID, n)}
	for v := 0; v < n; v++ {
		res.Component[v] = graph.VID(comp[v])
	}
	return res, nil
}
