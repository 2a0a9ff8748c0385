package gap

import (
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/traverse"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/parallel"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// Frontier grains: small top-down chunks keep skewed frontiers
// balanced; bottom-up sweeps the whole vertex range in larger chunks.
// Both are multiples of 64 so bitmap chunks never share words. These
// are the GrainFixed bases; under Spec.Grain = "adaptive" every
// region resolves its grain through Machine.Grain instead
// (frontier-proportional, so small levels still split into enough
// chunks to steal). Bottom-up passes align 64 because each chunk
// clears its own word range of the next bitmap in-region.
const (
	bfsTopDownGrain  = 64
	bfsBottomUpGrain = 1024
	// bfsBitmapWordGrain is the modeled chunking of bitmap-word sweeps
	// (the real sweep runs inside Bitmap.ToSlice at the same grain).
	bfsBitmapWordGrain = 256
)

// BFS implements engines.Instance with the direction-optimizing
// algorithm of Beamer et al.: top-down steps process the frontier and
// claim children with a priority write (min parent wins); once the
// frontier's outgoing edge count exceeds the unexplored edge count
// divided by α, the search switches to bottom-up steps in which every
// unvisited vertex scans its in-neighbors for a parent (no atomics
// needed — each vertex writes only its own state); it switches back
// once the frontier shrinks below n/β. Setting Alpha <= 0 disables
// bottom-up entirely (pure top-down), which the ablation benchmarks
// use.
//
// Frontiers are deterministic by construction, never by sorting — the
// sliding-queue discipline of the real suite. Top-down collects
// tentative claims in a chunk-ordered queue and drains it with the
// final write-min parents as the filter, so the next frontier's
// membership and order are schedule-independent; bottom-up keeps the
// frontier as a bitmap (set bits are idempotent), and the two
// representations convert into each other at the direction switch
// exactly as GAP's sliding queue does. Every charged cost is a
// function of chunk contents only — never of the goroutine schedule.
// Together with the instance's workspace, writing into a warm dst makes
// a search allocate nothing that scales with the graph.
func (inst *Instance) BFS(root graph.VID, dst *engines.BFSResult) (*engines.BFSResult, error) {
	inst.BuildStructure()
	n := inst.n
	tr := &inst.trav
	res := traverse.StartBFS(dst, root, n)

	var front, nextBits *parallel.Bitmap // tr's, taken at the first switch
	tr.Frontier = append(tr.Frontier[:0], root)
	frontierLen := 1
	scout := inst.out.Degree(root)
	edgesUnexplored := inst.mEdges
	bottomUp := false

	// The direction policy, around the shared level loop (which polls
	// for cancellation once per level) and the shared top-down step.
	err := tr.Levels("gap: BFS", func(level int64) int {
		wasBottomUp := bottomUp
		if inst.Alpha > 0 {
			if !bottomUp && scout > edgesUnexplored/int64(inst.Alpha) {
				bottomUp = true
			} else if bottomUp && int64(frontierLen) < int64(n)/int64(inst.Beta) {
				bottomUp = false
			}
		}

		var examined, nextScout int64
		if bottomUp {
			if front == nil {
				front, nextBits = tr.Bitmaps(n)
			}
			if !wasBottomUp {
				inst.frontierToBitmap(tr.Frontier, front)
			}
			var found int64
			examined, nextScout, found = inst.stepBottomUp(front, nextBits, res.Parent, res.Depth, level)
			front, nextBits = nextBits, front
			frontierLen = int(found)
		} else {
			if wasBottomUp {
				tr.Frontier = inst.bitmapToFrontier(front, tr.Frontier[:0], frontierLen)
			}
			examined = tr.TopDown(inst.m, inst.outRows(), &topDown, res, level)
			frontierLen = len(tr.Frontier)
			for _, v := range tr.Frontier {
				nextScout += inst.out.Degree(v)
			}
		}
		res.EdgesExamined += examined
		edgesUnexplored -= scout
		scout = nextScout
		return frontierLen
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// toBitmapCall is what one frontierToBitmap region's chunks read.
type toBitmapCall struct {
	frontier []graph.VID
	b        *parallel.Bitmap
	share    float64 // bitmap words charged per chunk
}

// bottomUpCall is what one stepBottomUp region's chunks read.
type bottomUpCall struct {
	front, next   *parallel.Bitmap
	parent, depth []int64
	level         int64
	rows          pullRows
	edgeCost      simmachine.Cost
	cpb           float64
	exa, sct, fnd *parallel.Counter
	out           *graph.CSR // the next level's scout counts out-degrees
}

// frontierToBitmap converts a queue frontier into the bitmap the
// bottom-up step consumes (the top-down→bottom-up side of the
// direction switch). Bit sets are atomic ORs: idempotent and
// commutative, hence schedule-independent. The bitmap reset is charged
// as a uniform word share folded into each insert chunk — a pure
// function of (frontier length, n), so still deterministic.
func (inst *Instance) frontierToBitmap(frontier []graph.VID, b *parallel.Bitmap) {
	b.Clear()
	g := inst.m.Grain(len(frontier), bfsTopDownGrain, 1)
	words := float64((inst.n + 63) / 64)
	tb := &inst.ws.toBits
	*tb = toBitmapCall{frontier: frontier, b: b, share: words / float64(parallel.NumChunks(len(frontier), g))}
	inst.m.For(len(frontier), g, simmachine.Dynamic, tb)
	*tb = toBitmapCall{}
}

// Chunk sets one chunk of frontierToBitmap's frontier.
func (tb *toBitmapCall) Chunk(lo, hi, chunk, worker int, w *simmachine.W) {
	for _, v := range tb.frontier[lo:hi] {
		tb.b.Set(int(v))
	}
	w.Charge(costBitmapInsert.Scale(float64(hi - lo)))
	w.Charge(costBitmapWord.Scale(tb.share))
}

// bitmapToFrontier converts the bitmap frontier back into an ascending
// vertex slice (the bottom-up→top-down side of the switch), running
// the two-pass parallel ToSlice on the machine's pool and charging it
// as one uniform word sweep whose per-word cost folds in the flush of
// the produced queue entries (count/words each) — a pure function of
// (n, count), so the modeled duration is schedule-independent.
func (inst *Instance) bitmapToFrontier(b *parallel.Bitmap, dst []graph.VID, count int) []graph.VID {
	out := b.ToSlice(inst.m.Pool(), inst.m.Workers(), dst)
	words := (inst.n + 63) / 64
	per := costBitmapWord
	per.Add(costQueueDrain.Scale(float64(count) / float64(words)))
	inst.m.ChargeUniform(words, inst.m.Grain(words, bfsBitmapWordGrain, 1), simmachine.Dynamic, per)
	return out
}

// stepBottomUp scans unvisited vertices for a parent on the frontier
// bitmap. Each vertex mutates only its own entries, so no atomics are
// charged — the source of GAP's superior scaling on low-diameter
// graphs. Taking the first match in sorted in-adjacency yields the
// minimum-ID parent, the same rule the top-down write-min enforces.
// The next frontier is the bitmap of discovered vertices: membership
// is per-vertex-owned, hence deterministic, and needs no
// canonicalization at all. Each chunk resets its own word range of the
// next bitmap in-region (ranges are 64-aligned by the grain), so the
// reset is parallel and charged per chunk — no extra region, no extra
// barrier.
func (inst *Instance) stepBottomUp(front, next *parallel.Bitmap, parent, depth []int64, level int64) (examined, nextScout, found int64) {
	tr := &inst.trav
	bu := &inst.ws.bottomUp
	*bu = bottomUpCall{
		front: front, next: next, parent: parent, depth: depth, level: level,
		rows: inst.inRows(), edgeCost: costBottomUpEdge, cpb: inst.m.Model().DecodeCyclesPerByte,
		exa: tr.Counter(inst.m, 0), sct: tr.Counter(inst.m, 1), fnd: tr.Counter(inst.m, 2), out: inst.out,
	}
	if bu.rows.Encoded() {
		bu.edgeCost = costBottomUpEdgeC
	}
	// align 64: each chunk clears its own word range of `next`.
	g := inst.m.Grain(inst.n, bfsBottomUpGrain, 64)
	inst.m.For(inst.n, g, simmachine.Dynamic, bu)
	examined, nextScout, found = bu.exa.Sum(), bu.sct.Sum(), bu.fnd.Sum()
	*bu = bottomUpCall{}
	return examined, nextScout, found
}

// Chunk scans one chunk of the vertices for parents.
func (bu *bottomUpCall) Chunk(lo, hi, chunk, worker int, w *simmachine.W) {
	parent, depth, rows, front, next := bu.parent, bu.depth, bu.rows, bu.front, bu.next
	next.ClearRange(lo, hi)
	w.Charge(costBitmapWord.Scale(float64(hi-lo) / 64))
	var edges, localScout, localFound, decBytes int64
	for v := lo; v < hi; v++ {
		if parent[v] != engines.NoParent {
			continue
		}
		// The scan stops at the first hit, so an encoded row is
		// charged exactly the prefix consumed. How far a vertex
		// scans depends only on the previous level's frontier, not
		// on the schedule.
		u, scanned, nb, ok := rows.FirstIn(graph.VID(v), front)
		edges += scanned
		decBytes += nb
		if ok {
			// Own-vertex writes only: no atomics, no races.
			parent[v] = int64(u)
			depth[v] = bu.level + 1
			next.Set(v)
			localFound++
			localScout += bu.out.Degree(graph.VID(v))
		}
	}
	bu.exa.Add(worker, edges)
	bu.sct.Add(worker, localScout)
	bu.fnd.Add(worker, localFound)
	w.Charge(bu.edgeCost.Scale(float64(edges)))
	// Raw rows read no encoded bytes: these two add nothing.
	w.Cycles(bu.cpb * float64(decBytes))
	w.Bytes(float64(decBytes))
	w.Cycles(float64(hi-lo) * 2) // visited test per vertex
	w.Bytes(float64(hi-lo) * 1)
}
