package powergraph

import (
	"math/bits"

	"github.com/hpcl-repro/epg/internal/graph"
)

// Replica accumulators. PowerGraph's gather phase does not write to a
// shared vertex value: each shard accumulates into its local replica
// of the vertex, and the ghost-synchronization exchange combines the
// replicas at the master. This file reproduces that layout: every
// (vertex, shard) replica pair owns one slot in a flat array, indexed
// by a per-vertex prefix offset plus the shard's rank within the
// vertex's replica mask. Gather writes are shard-local (no atomics),
// and the combine folds a vertex's slots in ascending shard order —
// so gather results, including floating-point sums, are bit-identical
// across runs and real worker counts.

// buildSlots computes the prefix offsets once the replica masks are
// final. TotalRep (the classic replication-volume metric) equals
// slotOff[n].
func (pt *partition) buildSlots() {
	pt.slotOff = make([]int64, len(pt.Replicas)+1)
	for v, mask := range pt.Replicas {
		pt.slotOff[v+1] = pt.slotOff[v] + int64(bits.OnesCount64(mask))
	}
}

// slot returns the accumulator index of vertex v's replica on shard s.
// s must be set in v's replica mask.
func (pt *partition) slot(v graph.VID, s int) int64 {
	mask := pt.Replicas[v]
	return pt.slotOff[v] + int64(bits.OnesCount64(mask&(1<<uint(s)-1)))
}

// slotRange returns the half-open flat index range of v's replica
// slots; folding it in ascending order is the deterministic combine.
func (pt *partition) slotRange(v graph.VID) (lo, hi int64) {
	return pt.slotOff[v], pt.slotOff[v+1]
}
