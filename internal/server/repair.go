package server

import (
	"math"
	"slices"

	"github.com/hpcl-repro/epg/internal/graph"
)

// Repair returns the sketch of post, given that s is the sketch of pre:
// what BuildSketch(post, k) would return, bit for bit, at a cost that
// follows what changed between the two adjacencies, not the size of the
// graph (ARCHITECTURE.md "Streaming mutations" has the argument). postIn
// is post's in-adjacency, post itself on an undirected graph. Readers
// hold s outside the lock, so it is never written: the result is a new
// Sketch sharing every vector the batch left alone. A landmark entering
// the top-k has no vector to repair and is built whole.
func (s *Sketch) Repair(pre, post, postIn *graph.CSR) *Sketch {
	k := len(s.landmarks)
	out := &Sketch{landmarks: topDegree(post, k)}
	if k == 0 {
		return out
	}
	out.hops = make([][]int32, k)
	if s.dist != nil {
		out.dist = make([][]float64, k)
	}
	r := &repairer{post: post, in: postIn, mark: make([]uint32, post.NumVertices)}
	r.diff(pre)
	for li, l := range out.landmarks {
		from := slices.Index(s.landmarks, l)
		if from < 0 {
			out.hops[li] = bfsHops(post, l)
			if s.dist != nil {
				out.dist[li] = dijkstra(post, l)
			}
			continue
		}
		out.hops[li] = repairVec(r, s.hops[from], -1, false)
		if s.dist != nil {
			out.dist[li] = repairVec(r, s.dist[from], math.Inf(1), true)
		}
	}
	return out
}

// arc is one adjacency entry that differs between pre and post, at its
// weight (zero on an unweighted graph, which has no distance vectors to
// read it). A weight change is two arcs, gone at the old weight and came
// at the new, flagged reweigh: the hop vectors skip those.
type arc struct {
	u, v    graph.VID
	w       float64
	reweigh bool
}

// repairer is what the vector repairs of one Repair call share.
// mark[v] == epoch: v has been a candidate of the current vector;
// epoch+1: it is affected (2k stamps in all: no wrap).
type repairer struct {
	post, in   *graph.CSR
	gone, came []arc
	mark       []uint32
	epoch      uint32
	heap       distHeap
	affected   []graph.VID
}

// diff fills gone and came from graph.Diff of pre and the post rows,
// not from a batch report: it must also see a weight lowered by a
// duplicate insert or changed by a delete and re-insert.
func (r *repairer) diff(pre *graph.CSR) {
	for c := range graph.Diff(pre, r.post) {
		rw := c.Kind == graph.Reweighed
		if c.Kind != graph.Came {
			r.gone = append(r.gone, arc{u: c.Src, v: c.Dst, w: float64(c.OldW), reweigh: rw})
		}
		if c.Kind != graph.Gone {
			r.came = append(r.came, arc{u: c.Src, v: c.Dst, w: float64(c.NewW), reweigh: rw})
		}
	}
}

// weightAt is the weight of a row's i-th entry: 1 when it carries none.
func weightAt(ws []float32, i int) float64 {
	if ws == nil {
		return 1
	}
	return float64(ws[i])
}

// vec is one landmark vector under repair: hop counts (unreached -1,
// everything read at unit weight) or weighted distances (unreached
// +Inf), in float64 either way — a hop count converts exactly. d is old
// itself, which readers share, until the first write, and a copy after.
type vec[D int32 | float64] struct {
	r         *repairer
	old, d    []D
	unreached D
	weighted  bool
}

// repairVec returns old repaired: old itself when nothing moved.
func repairVec[D int32 | float64](r *repairer, old []D, unreached D, weighted bool) []D {
	x := &vec[D]{r: r, old: old, d: old, unreached: unreached, weighted: weighted}
	return x.resettle(x.affected())
}

func (x *vec[D]) at(v graph.VID) float64 {
	if val := x.d[v]; val != x.unreached {
		return float64(val)
	}
	return math.Inf(1)
}

func (x *vec[D]) set(v graph.VID, val D) {
	if &x.d[0] == &x.old[0] {
		x.d = slices.Clone(x.old)
	}
	x.d[v] = val
}

func (x *vec[D]) row(c *graph.CSR, v graph.VID) ([]graph.VID, []float32) {
	if !x.weighted {
		return c.Neighbors(v), nil
	}
	return c.WeightedRow(v)
}

// arcWeight is the weight x reads a at, and whether it sees a at all.
func (x *vec[D]) arcWeight(a arc) (w float64, ok bool) {
	if !x.weighted {
		return 1, !a.reweigh
	}
	return a.w, true
}

// affected is phase A (Ramalingam-Reps): the vertices whose value post
// may no longer attain. Candidates start at the heads of gone entries
// that were tight (d[u]+w == d[v]) and leave a heap in (d, id) order; one
// stays intact iff post holds a tight in-entry from a non-affected u with
// strictly smaller d[u], else it is affected and its tight out-neighbors
// become candidates. Popping by d, every affected vertex below d[v] is
// known when v is judged; the strict < keeps a weight float64 addition
// absorbed (d[u]+w == d[u]) from propping two vertices up on each other.
func (x *vec[D]) affected() []graph.VID {
	r, inf := x.r, math.Inf(1)
	r.epoch += 2
	queued, hit := r.epoch, r.epoch+1
	h, affected := r.heap[:0], r.affected[:0]
	candidate := func(v graph.VID, dv float64) {
		if r.mark[v] != queued && r.mark[v] != hit {
			r.mark[v] = queued
			h.push(distItem{v: v, d: dv})
		}
	}
	for _, a := range r.gone {
		w, ok := x.arcWeight(a)
		if dv := x.at(a.v); ok && dv < inf && x.at(a.u)+w == dv {
			candidate(a.v, dv)
		}
	}
	for len(h) > 0 {
		it := h.pop()
		intact := false
		adj, ws := x.row(r.in, it.v)
		for i, u := range adj {
			if du := x.at(u); du < it.d && r.mark[u] != hit && du+weightAt(ws, i) == it.d {
				intact = true
				break
			}
		}
		if intact {
			continue
		}
		r.mark[it.v] = hit
		affected = append(affected, it.v)
		adj, ws = x.row(r.post, it.v)
		for i, u := range adj {
			if du := x.at(u); du < inf && it.d+weightAt(ws, i) == du {
				candidate(u, du)
			}
		}
	}
	r.heap, r.affected = h, affected
	return affected
}

// resettle is phase B: reset the affected, reseed each from its
// in-neighbors, relax every came entry, and run Dijkstra from those
// seeds only: no entry of post can then lower a value and every value is
// attained, which is the fixpoint BuildSketch computes.
func (x *vec[D]) resettle(affected []graph.VID) []D {
	r, h := x.r, x.r.heap[:0]
	relax := func(v graph.VID, c float64) {
		if c < x.at(v) {
			x.set(v, D(c))
			h.push(distItem{v: v, d: c})
		}
	}
	for _, v := range affected {
		x.set(v, x.unreached)
	}
	for _, v := range affected {
		best := math.Inf(1)
		adj, ws := x.row(r.in, v)
		for i, u := range adj {
			best = min(best, x.at(u)+weightAt(ws, i))
		}
		relax(v, best)
	}
	for _, a := range r.came {
		if w, ok := x.arcWeight(a); ok {
			relax(a.v, x.at(a.u)+w)
		}
	}
	for len(h) > 0 {
		it := h.pop()
		if it.d > x.at(it.v) {
			continue
		}
		adj, ws := x.row(r.post, it.v)
		for i, u := range adj {
			relax(u, it.d+weightAt(ws, i))
		}
	}
	r.heap = h
	return x.d
}
