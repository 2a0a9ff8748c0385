package gap

import (
	"github.com/hpcl-repro/epg/internal/engines/traverse"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/parallel"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// workspace is the working set of the kernels GAP does not share —
// both delta-stepping variants' buckets, the chaotic variant's CAS
// distances and queues, PageRank's vectors, IncrementalWCC's repair —
// kept on the Instance, beside the shared steps' traverse.State (which
// also lends the per-worker counters and row buffers and the bottom-up
// bitmaps), so that a warm kernel allocates its result and nothing else
// that scales with n or m: the paper's method is one resident graph
// searched again and again, and epgd turns that into traffic. An
// Instance is single-caller (its Machine is not concurrent-safe), so
// one workspace per Instance needs no locking and no pooling; every
// piece is sized from (inst.n, Workers()) where it is used, so a Mutate
// epoch swap or a SetWorkers needs no invalidation hook; and every
// kernel initializes what it reads on entry, so a call abandoned
// mid-flight (a cancelled query, a recovered panic) leaves nothing the
// next one trusts.
//
// Retention rule: n-sized arrays are kept once each, and the per-chunk
// outputs of a region are Kept in a parallel.Slab, so what stays
// resident is bounded by the largest single region's output and the
// largest chunk's per worker — never by a high-water mark per chunk,
// which retains several times more and costs twice that in heap under
// GOGC=100 — and does not depend on which worker ran which chunk.
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
	reAddBuf parallel.Slab[graph.VID]
	laterQ   parallel.ChunkQueue[[2]int64] // (bucket, vertex)
	laterBuf parallel.Slab[[2]int64]
	// row is the serial maintainers' buffer for the rows an epoch stores
	// as deltas (graph.RowBuf); the parallel bodies borrow traverse.State's.
	row graph.RowBuf

	// PageRank: the rank vector paired with dst's (never handed out),
	// the rank/degree contributions and the out-degrees of the epoch.
	prSpare, prContrib []float64
	prOutDeg           []int64

	// WCC: the label array paired with dst's (never handed out).
	wccSpare []graph.VID

	// IncrementalWCC's diff against its baseline (the out-entries that
	// came and went), its delete repair (the affected components' labels,
	// membership in them and visited or not, their vertices, the BFS
	// queue) and its insert repair (the DSU over labels). The maps are
	// cleared per call and keep their buckets.
	wccCame, wccGone []graph.Change
	wccAffected      map[graph.VID]struct{}
	wccMark          []uint8
	wccSet           []graph.VID
	wccQueue         []graph.VID
	wccParent        map[graph.VID]graph.VID

	// The region bodies and hooks GAP's own steps hand the machine and
	// the shared steps, bound to the Instance once (steps), and the
	// per-call values the bodies read, set by each step and cleared
	// when it returns — so a step builds no closure.
	owner                  *Instance
	bottomUpFn, toBitmapFn func(lo, hi, chunk, worker int, w *simmachine.W)
	bottomUp               bottomUpCall
	toBits                 toBitmapCall
	// Delta-stepping, both variants: the bucket being settled and the
	// bucket width. The synchronous variant's light-pass filter and its
	// two passes' win hooks; the chaotic variant's two pass bodies and
	// what they read.
	bucket              int
	delta               float64
	staleFn             func(d float64) bool
	settleFn, requeueFn func(u graph.VID, nd float64)
	lightFn, heavyFn    func(lo, hi, chunk, worker int, w *simmachine.W)
	chaos               chaosCall
	// PageRank's three sweeps and what an iteration's read; WCC's
	// pointer-jumping sweep and the labels it jumps.
	prContribFn, prPullFn, prL1Fn, ccJumpFn func(c *traverse.Chunk, lo, hi int)
	pr                                      prCall
	ccComp                                  []graph.VID
}

// steps binds the workspace's bodies and hooks to inst — once, and
// again if the Instance was copied — and returns the workspace.
func (inst *Instance) steps() *workspace {
	ws := &inst.ws
	if ws.owner != inst {
		ws.owner = inst
		ws.bottomUpFn, ws.toBitmapFn = inst.bottomUpChunk, inst.toBitmapChunk
		ws.staleFn, ws.settleFn, ws.requeueFn = inst.stale, inst.settle, inst.requeue
		ws.lightFn, ws.heavyFn = inst.lightChunk, inst.heavyChunk
		ws.prContribFn, ws.prPullFn, ws.prL1Fn = inst.prContribChunk, inst.prPullChunk, inst.prL1Chunk
		ws.ccJumpFn = inst.ccJumpChunk
	}
	return ws
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
