package graph

import "math/bits"

// MaxVertexCutShards bounds the vertex-cut width: per-vertex replica
// sets are one 64-bit mask.
const MaxVertexCutShards = 64

// VertexCutStats summarizes a greedy vertex-cut partition of a CSR's
// directed adjacency: which shards replicate each vertex, how many
// edges each shard carries, and the aggregate replica count (the ghost
// synchronization volume of a PowerGraph-style engine).
type VertexCutStats struct {
	Shards   int
	Replicas []uint64 // per-vertex shard mask
	Loads    []int64  // edges placed per shard
	TotalRep int64    // sum of popcounts over Replicas
}

// GreedyVertexCut partitions the directed adjacency of c into at most
// MaxVertexCutShards shards with PowerGraph's greedy streaming
// heuristic: each edge goes to the least-loaded shard already holding
// one of its endpoints (or the globally least-loaded shard when
// neither endpoint is placed yet), replicating both endpoints there;
// ties go to the lowest shard. Edges stream in canonical order — source
// vertex ascending, adjacency order within each source — so the cut is
// a pure function of (c, shards). shardOf, when non-nil, holds an entry
// per edge and receives each edge's shard in that order; engines use it
// to materialize per-shard edge lists, while modeling-only callers (the
// cluster partitioner) pass nil and keep just the stats.
//
// The shards at the global minimum load are kept as a mask, so an edge
// whose candidates include one of them, or that has none, is placed in
// O(1); only an edge whose candidates are all above the minimum scans
// them, and the mask is rebuilt when its last shard is loaded.
func GreedyVertexCut(c *CSR, shards int, shardOf []uint8) *VertexCutStats {
	shards = min(max(shards, 1), MaxVertexCutShards)
	st := &VertexCutStats{
		Shards:   shards,
		Replicas: make([]uint64, c.NumVertices),
		Loads:    make([]int64, shards),
	}
	reps, loads := st.Replicas, st.Loads
	atMin, minLoad := ^uint64(0)>>(MaxVertexCutShards-shards), int64(0)
	k := 0
	for v := 0; v < c.NumVertices; v++ {
		for _, u := range c.Neighbors(VID(v)) {
			cand := reps[v] | reps[u]
			var best int
			if low := cand & atMin; low != 0 {
				best = bits.TrailingZeros64(low)
			} else if cand == 0 {
				best = bits.TrailingZeros64(atMin)
			} else {
				best = bits.TrailingZeros64(cand)
				for mask := cand & (cand - 1); mask != 0; mask &= mask - 1 {
					if s := bits.TrailingZeros64(mask); loads[s] < loads[best] {
						best = s
					}
				}
			}
			if shardOf != nil {
				shardOf[k] = uint8(best)
			}
			k++
			bit := uint64(1) << uint(best)
			loads[best]++
			reps[v] |= bit
			reps[u] |= bit
			if atMin&bit != 0 && shards > 1 { // one shard is always the least loaded
				if atMin &^= bit; atMin == 0 {
					minLoad++
					for s, l := range loads {
						if l == minLoad {
							atMin |= 1 << uint(s)
						}
					}
				}
			}
		}
	}
	for _, mask := range reps {
		st.TotalRep += int64(bits.OnesCount64(mask))
	}
	return st
}

// ReplicationFactor returns the average number of shards holding each
// non-isolated vertex — the classic vertex-cut quality metric.
func (st *VertexCutStats) ReplicationFactor() float64 {
	present := 0
	for _, mask := range st.Replicas {
		if mask != 0 {
			present++
		}
	}
	if present == 0 {
		return 0
	}
	return float64(st.TotalRep) / float64(present)
}

// Owners derives a per-vertex home assignment from the cut: each
// replicated vertex lives on its lowest replica shard (the
// deterministic master), and isolated vertices fall back to the
// blocked 1D assignment so every vertex has exactly one home. This is
// the 2D ("vertex-cut") owner table the modeled cluster partitioner
// hands to simmachine.SetCluster.
func (st *VertexCutStats) Owners() []int16 {
	n := len(st.Replicas)
	owners := make([]int16, n)
	for v, mask := range st.Replicas {
		if mask != 0 {
			owners[v] = int16(bits.TrailingZeros64(mask))
		} else {
			owners[v] = int16(v * st.Shards / n)
		}
	}
	return owners
}
