package gap

import (
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/parallel"
)

// workspace is the working set BFS and both SSSP variants used to make
// per call or per level, kept on the Instance so that a warm traversal
// allocates nothing that scales with n or m — the paper's method is one
// resident graph searched again and again, and epgd turns that into
// traffic. An Instance is single-caller (its Machine is not
// concurrent-safe), so one workspace per Instance needs no locking and
// no pooling; and every piece is sized from (inst.n, Workers()) where
// it is used, so a Mutate epoch swap or a SetWorkers needs no
// invalidation hook.
//
// Retention rule: n-sized arrays are kept once each, and the per-chunk
// outputs of a region come out of one Arena buffer per worker, so what
// stays resident is bounded by the largest single region's output —
// never by a high-water mark per chunk, which retains several times
// more and costs twice that in heap under GOGC=100.
type workspace struct {
	// workers is the worker count cnt and decode are sized for.
	workers int
	// cnt are the per-region counters (BFS: edges examined, scout,
	// found; SSSP: relaxations), reset before each region that uses them.
	cnt [3]*parallel.Counter
	// decode[w] is the compressed-adjacency scratch of whatever chunk
	// worker w is running.
	decode [][]graph.VID

	// BFS: tentative claims of a top-down level, the two bottom-up
	// bitmaps (nil until a search first switches direction) and the
	// queue-form frontier.
	claims          parallel.ChunkQueue[parallel.Claim]
	claimBuf        parallel.Arena[parallel.Claim]
	front, nextBits *parallel.Bitmap
	frontier        []graph.VID

	// Delta-stepping, both variants: bucket slices are truncated, not
	// dropped, between calls; reAdd and heavy are the current bucket's
	// re-settle list and heavy-edge frontier.
	buckets [][]graph.VID
	reAdd   []graph.VID
	heavy   []graph.VID

	// Synchronous SSSP: gathered candidates, and the same-pass dedup
	// stamps. pass carries across calls so queued never needs clearing
	// except when the counter wraps.
	cands   parallel.ChunkQueue[ssspCand]
	candBuf parallel.Arena[ssspCand]
	queued  []int32
	pass    int32

	// Chaotic SSSP: CAS-min distance bits and the two bucket-update
	// queues.
	dist     []uint64
	reAddQ   parallel.ChunkQueue[graph.VID]
	reAddBuf parallel.Arena[graph.VID]
	laterQ   parallel.ChunkQueue[[2]int64] // (bucket, vertex)
	laterBuf parallel.Arena[[2]int64]
}

// scratch returns the instance's workspace with its per-worker parts
// sized for the machine's current worker count.
func (inst *Instance) scratch() *workspace {
	ws := &inst.ws
	if w := inst.m.Workers(); ws.workers != w {
		ws.workers = w
		for i := range ws.cnt {
			ws.cnt[i] = parallel.NewCounter(w)
		}
		ws.decode = make([][]graph.VID, w)
	}
	return ws
}

// counter returns the i-th per-region counter, zeroed.
func (ws *workspace) counter(i int) *parallel.Counter {
	ws.cnt[i].Reset()
	return ws.cnt[i]
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

// nextPass advances the dedup stamp, re-zeroing queued when the
// counter would wrap into values old stamps may still hold.
func (ws *workspace) nextPass() int32 {
	if ws.pass == 1<<31-1 {
		clear(ws.queued[:cap(ws.queued)])
		ws.pass = 0
	}
	ws.pass++
	return ws.pass
}

// resized returns s with length n, reusing its array when large enough.
// The contents are unspecified: callers initialize what they read.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// bfsResultFor readies dst (a fresh result when nil) for a search of n
// vertices from root, reusing dst's arrays when they are large enough.
func bfsResultFor(dst *engines.BFSResult, root graph.VID, n int) *engines.BFSResult {
	if dst == nil {
		dst = &engines.BFSResult{}
	}
	dst.Root, dst.EdgesExamined = root, 0
	dst.Parent, dst.Depth = resized(dst.Parent, n), resized(dst.Depth, n)
	return dst
}

// ssspResultFor is bfsResultFor for SSSP.
func ssspResultFor(dst *engines.SSSPResult, root graph.VID, n int) *engines.SSSPResult {
	if dst == nil {
		dst = &engines.SSSPResult{}
	}
	dst.Root, dst.Relaxations = root, 0
	dst.Dist, dst.Parent = resized(dst.Dist, n), resized(dst.Parent, n)
	return dst
}
