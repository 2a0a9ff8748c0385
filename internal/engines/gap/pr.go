package gap

import (
	"math"
	"sync/atomic"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/parallel"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// PageRank implements engines.Instance with the suite's pull-based
// formulation: each vertex gathers rank/degree contributions from its
// in-neighbors, so no atomics are needed in the hot loop. Scores are
// float64; the stopping criterion is the paper's homogenized L1 norm
// with ε = 6e-8. The dangling-mass and L1 reductions fold per-chunk
// partials in chunk order, so ranks and iteration counts are
// bit-identical across runs and worker counts.
func (inst *Instance) PageRank(opts engines.PROpts) (*engines.PRResult, error) {
	inst.ensureBuilt()
	opts = opts.Normalize()
	n := inst.n
	if n == 0 {
		return &engines.PRResult{Rank: nil}, nil
	}
	inv := 1.0 / float64(n)
	rank := make([]float64, n)
	next := make([]float64, n)
	contrib := make([]float64, n)
	for i := range rank {
		rank[i] = inv
	}
	outDeg := inst.out.OutDegrees()

	res := &engines.PRResult{}
	gContrib := inst.m.Grain(n, 2048, 1)
	gPull := inst.m.Grain(n, 1024, 1)
	gL1 := inst.m.Grain(n, 4096, 1)
	for iter := 1; iter <= opts.MaxIter; iter++ {
		if err := inst.trav.Poll("gap: PageRank"); err != nil {
			return nil, err
		}
		// Per-vertex contributions and the dangling sum.
		dr := parallel.NewReducer[float64](parallel.NumChunks(n, gContrib))
		inst.m.ParallelForChunks(n, gContrib, simmachine.Dynamic, func(lo, hi, chunk, worker int, w *simmachine.W) {
			var localDangling float64
			for v := lo; v < hi; v++ {
				if outDeg[v] == 0 {
					localDangling += rank[v]
					contrib[v] = 0
					continue
				}
				contrib[v] = rank[v] / float64(outDeg[v])
			}
			*dr.At(chunk) = localDangling
			w.Cycles(float64(hi-lo) * 3)
			w.Bytes(float64(hi-lo) * 16)
		})
		dangling := parallel.SumFloat64(dr)
		base := (1-opts.Damping)*inv + opts.Damping*dangling*inv

		// Pull phase.
		cpb := inst.m.Model().DecodeCyclesPerByte
		inst.m.ParallelFor(n, gPull, simmachine.Dynamic, func(lo, hi int, w *simmachine.W) {
			var edges, decBytes int64
			for v := lo; v < hi; v++ {
				sum := 0.0
				if inst.cin != nil {
					d := inst.cin.Decoder(graph.VID(v))
					for u, ok := d.Next(); ok; u, ok = d.Next() {
						sum += contrib[u]
					}
					decBytes += int64(d.BytesRead())
				} else {
					for _, u := range inst.in.Neighbors(graph.VID(v)) {
						sum += contrib[u]
					}
				}
				edges += inst.in.Degree(graph.VID(v))
				next[v] = base + opts.Damping*sum
			}
			if inst.cin != nil {
				w.Charge(costPREdgeC.Scale(float64(edges)))
				w.Cycles(cpb * float64(decBytes))
				w.Bytes(float64(decBytes))
			} else {
				w.Charge(costPREdge.Scale(float64(edges)))
			}
			w.Charge(costPRVertex.Scale(float64(hi - lo)))
		})

		// L1 convergence test.
		lr := parallel.NewReducer[float64](parallel.NumChunks(n, gL1))
		inst.m.ParallelForChunks(n, gL1, simmachine.Dynamic, func(lo, hi, chunk, worker int, w *simmachine.W) {
			local := 0.0
			for v := lo; v < hi; v++ {
				local += math.Abs(next[v] - rank[v])
			}
			*lr.At(chunk) = local
			w.Cycles(float64(hi-lo) * 4)
			w.Bytes(float64(hi-lo) * 16)
		})
		l1 := parallel.SumFloat64(lr)

		rank, next = next, rank
		res.Iterations = iter
		if inst.prRec != nil {
			inst.prRec.record(rank, dr, lr,
				parallel.NumChunks(n, gContrib), parallel.NumChunks(n, gL1),
				dangling, base, l1)
		}
		if l1 < opts.Epsilon {
			break
		}
	}
	res.Rank = rank
	return res, nil
}

// atomicAddFloat64 adds delta to the float64 stored in bits.
func atomicAddFloat64(bits *uint64, delta float64) {
	for {
		old := atomic.LoadUint64(bits)
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if atomic.CompareAndSwapUint64(bits, old, nv) {
			return
		}
	}
}

// WCC implements engines.Instance with Shiloach-Vishkin-style label
// propagation (the suite's connected components kernel): every vertex
// repeatedly adopts the minimum label in its neighborhood, with a
// pointer-jumping compression pass, until a fixed point.
func (inst *Instance) WCC() (*engines.WCCResult, error) {
	inst.ensureBuilt()
	n := inst.n
	comp := make([]uint32, n)
	for i := range comp {
		comp[i] = uint32(i)
	}
	for {
		if err := inst.trav.Poll("gap: WCC"); err != nil {
			return nil, err
		}
		var changed int64
		inst.m.ParallelFor(n, 1024, simmachine.Dynamic, func(lo, hi int, w *simmachine.W) {
			var edges, localChanged int64
			for v := lo; v < hi; v++ {
				min := atomic.LoadUint32(&comp[v])
				for _, u := range inst.out.Neighbors(graph.VID(v)) {
					if c := atomic.LoadUint32(&comp[u]); c < min {
						min = c
					}
				}
				if inst.in != inst.out {
					for _, u := range inst.in.Neighbors(graph.VID(v)) {
						if c := atomic.LoadUint32(&comp[u]); c < min {
							min = c
						}
					}
					edges += inst.in.Degree(graph.VID(v))
				}
				edges += inst.out.Degree(graph.VID(v))
				if min < comp[v] {
					atomic.StoreUint32(&comp[v], min)
					localChanged++
				}
			}
			atomic.AddInt64(&changed, localChanged)
			w.Charge(costCCEdge.Scale(float64(edges)))
			w.Cycles(float64(hi-lo) * 2)
		})
		// Pointer jumping: comp[v] = comp[comp[v]] until stable.
		inst.m.ParallelFor(n, 2048, simmachine.Dynamic, func(lo, hi int, w *simmachine.W) {
			for v := lo; v < hi; v++ {
				for {
					c := atomic.LoadUint32(&comp[v])
					cc := atomic.LoadUint32(&comp[c])
					if cc >= c {
						break
					}
					atomic.StoreUint32(&comp[v], cc)
				}
			}
			w.Cycles(float64(hi-lo) * 6)
			w.Bytes(float64(hi-lo) * 12)
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
