package gap

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// The paper's future-work section singles out triangle counting and
// betweenness centrality as "widely implemented but not supported by
// either Graphalytics nor easy-parallel-graph-*". The GAP Benchmark
// Suite does ship both (its TC and BC kernels), so this file extends
// the GAP engine with them, closing that gap for the reproduction.

var (
	costTCCheck = simmachine.Cost{Cycles: 4, Bytes: 8}
	costBCEdge  = simmachine.Cost{Cycles: 8, Bytes: 14}
)

// TriangleCount implements the suite's TC kernel: each vertex
// intersects its sorted adjacency with those of its higher-numbered
// neighbors, counting each triangle exactly once (u < v < w). The
// graph must be undirected (symmetrized), as in the real suite.
func (inst *Instance) TriangleCount() (int64, error) {
	inst.BuildStructure()
	if inst.in != inst.out {
		return 0, fmt.Errorf("gap: triangle counting requires an undirected graph")
	}
	var total int64
	inst.m.ParallelFor(inst.n, 64, simmachine.Dynamic, func(lo, hi int, w *simmachine.W) {
		var local, checks int64
		for v := lo; v < hi; v++ {
			adjV := higher(inst.out.Neighbors(graph.VID(v)), graph.VID(v))
			for _, u := range adjV {
				adjU := higher(inst.out.Neighbors(u), u)
				// |{w : w ∈ adj(v), w ∈ adj(u), w > u}| with both
				// lists sorted ascending.
				i, j := 0, 0
				for i < len(adjV) && j < len(adjU) {
					checks++
					switch {
					case adjV[i] < adjU[j]:
						i++
					case adjV[i] > adjU[j]:
						j++
					default:
						if adjV[i] > u {
							local++
						}
						i++
						j++
					}
				}
			}
		}
		atomic.AddInt64(&total, local)
		w.Charge(costTCCheck.Scale(float64(checks)))
	})
	return total, nil
}

// higher returns the suffix of the sorted adjacency strictly greater
// than v.
func higher(adj []graph.VID, v graph.VID) []graph.VID {
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := (lo + hi) / 2
		if adj[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return adj[lo:]
}

// BetweennessCentrality implements the suite's BC kernel: Brandes'
// algorithm from the given source vertices (the real suite samples a
// handful of sources rather than running all-pairs). Scores are not
// normalized, matching GAP. Each source contributes one forward
// level-synchronous sweep counting shortest paths and one backward
// dependency accumulation.
func (inst *Instance) BetweennessCentrality(sources []graph.VID) ([]float64, error) {
	inst.BuildStructure()
	if len(sources) == 0 {
		return nil, fmt.Errorf("gap: betweenness centrality needs at least one source")
	}
	n := inst.n
	bc := make([]float64, n)
	sigma := make([]float64, n)
	depth := make([]int64, n)
	delta := make([]uint64, n) // float64 bits, for atomic accumulation

	for _, s := range sources {
		if int(s) >= n {
			return nil, fmt.Errorf("gap: source %d out of range", s)
		}
		for i := 0; i < n; i++ {
			sigma[i] = 0
			depth[i] = -1
			delta[i] = 0 // bits of +0.0
		}
		sigma[s] = 1
		depth[s] = 0

		// Forward: level-synchronous shortest-path counting. The
		// frontier at each level is exact, so sigma accumulation
		// over in-level edges is race-free per target when done in
		// the pull direction.
		levels := [][]graph.VID{{s}}
		for {
			cur := levels[len(levels)-1]
			lvl := int64(len(levels) - 1)
			var mu sync.Mutex
			var next []graph.VID
			inst.m.ParallelFor(len(cur), 64, simmachine.Dynamic, func(lo, hi int, w *simmachine.W) {
				var local []graph.VID
				var edges int64
				for _, v := range cur[lo:hi] {
					for _, u := range inst.out.Neighbors(v) {
						edges++
						d := atomic.LoadInt64(&depth[u])
						if d == -1 {
							if atomic.CompareAndSwapInt64(&depth[u], -1, lvl+1) {
								local = append(local, u)
							}
						}
					}
				}
				if len(local) > 0 {
					mu.Lock()
					next = append(next, local...)
					mu.Unlock()
				}
				w.Charge(costBCEdge.Scale(float64(edges)))
			})
			if len(next) == 0 {
				break
			}
			// Sigma accumulation in the pull direction over the new
			// level: each vertex sums its predecessors' counts.
			inst.m.ParallelFor(len(next), 256, simmachine.Dynamic, func(lo, hi int, w *simmachine.W) {
				var edges int64
				for _, v := range next[lo:hi] {
					var sum float64
					for _, u := range inst.in.Neighbors(v) {
						edges++
						if depth[u] == lvl {
							sum += sigma[u]
						}
					}
					sigma[v] = sum
				}
				w.Charge(costBCEdge.Scale(float64(edges)))
			})
			levels = append(levels, next)
		}

		// Backward: dependency accumulation level by level.
		for l := len(levels) - 1; l > 0; l-- {
			cur := levels[l]
			inst.m.ParallelFor(len(cur), 256, simmachine.Dynamic, func(lo, hi int, w *simmachine.W) {
				var edges int64
				for _, v := range cur[lo:hi] {
					coef := (1 + math.Float64frombits(atomic.LoadUint64(&delta[v]))) / sigma[v]
					for _, u := range inst.in.Neighbors(v) {
						edges++
						if depth[u] == int64(l-1) {
							// Predecessor sets of frontier vertices
							// overlap, so accumulate atomically.
							atomicAddFloat64(&delta[u], sigma[u]*coef)
						}
					}
				}
				w.Charge(costBCEdge.Scale(float64(edges)))
			})
		}
		for v := 0; v < n; v++ {
			if graph.VID(v) != s && depth[v] != -1 {
				bc[v] += math.Float64frombits(delta[v])
			}
		}
	}
	return bc, nil
}
