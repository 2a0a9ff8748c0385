package gap

import (
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/parallel"
)

// workspace is the working set of the kernels GAP does not share —
// both delta-stepping variants' buckets, the chaotic variant's CAS
// distances and queues, PageRank's vectors, IncrementalWCC's repair —
// kept on the Instance, beside the shared steps' traverse.State (which
// also lends the per-worker counters and the bottom-up bitmaps), so
// that a warm kernel allocates its result and nothing else that scales
// with n or m: the paper's method is one resident graph searched again
// and again, and epgd turns that into traffic. An Instance is
// single-caller (its Machine is not concurrent-safe), so one workspace
// per Instance needs no locking and no pooling; every piece is sized
// from (inst.n, Workers()) where it is used, so a Mutate epoch swap or
// a SetWorkers needs no invalidation hook; and every kernel initializes
// what it reads on entry, so a call abandoned mid-flight (a cancelled
// query, a recovered panic) leaves nothing the next one trusts.
//
// Retention rule: n-sized arrays are kept once each, and the per-chunk
// outputs of a region come out of one Arena buffer per worker, so what
// stays resident is bounded by the largest single region's output —
// never by a high-water mark per chunk, which retains several times
// more and costs twice that in heap under GOGC=100.
type workspace struct {
	// Delta-stepping, both variants: bucket slices are truncated, not
	// dropped, between calls; reAdd and heavy are the current bucket's
	// re-settle list and heavy-edge frontier.
	buckets [][]graph.VID
	reAdd   []graph.VID
	heavy   []graph.VID

	// Chaotic SSSP: CAS-min distance bits and the two bucket-update
	// queues.
	dist     []uint64
	reAddQ   parallel.ChunkQueue[graph.VID]
	reAddBuf parallel.Arena[graph.VID]
	laterQ   parallel.ChunkQueue[[2]int64] // (bucket, vertex)
	laterBuf parallel.Arena[[2]int64]
	// rows holds one buffer per worker for the rows an epoch stores as
	// deltas (graph.RowBuf); row is the serial maintainers' one.
	rows []graph.RowBuf
	row  graph.RowBuf

	// PageRank: the rank vector the last call did not hand out, the
	// rank/degree contributions and the out-degrees of the epoch.
	prSpare, prContrib []float64
	prOutDeg           []int64

	// WCC: the label array the last call did not hand out.
	wccSpare []graph.VID

	// IncrementalWCC's diff against its baseline (the out-entries that
	// came and went) and its delete repair: membership in the affected
	// components (and visited or not), their vertices, the BFS queue.
	wccCame, wccGone []graph.Change
	wccMark          []uint8
	wccSet           []graph.VID
	wccQueue         []graph.VID
}

// rowBufs returns one row buffer per worker of workers.
func (ws *workspace) rowBufs(workers int) []graph.RowBuf {
	if len(ws.rows) != workers {
		ws.rows = make([]graph.RowBuf, workers)
	}
	return ws.rows
}

// resetBuckets empties every retained bucket (an abandoned run leaves
// some filled) and seeds bucket 0 with root.
func (ws *workspace) resetBuckets(root graph.VID) {
	for i := range ws.buckets {
		ws.buckets[i] = ws.buckets[i][:0]
	}
	ws.putBucket(0, root)
}

// putBucket appends v to bucket idx, growing the bucket list as needed.
func (ws *workspace) putBucket(idx int, v graph.VID) {
	for len(ws.buckets) <= idx {
		ws.buckets = append(ws.buckets, nil)
	}
	ws.buckets[idx] = append(ws.buckets[idx], v)
}
