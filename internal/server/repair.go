package server

import (
	"math"
	"slices"
	"unsafe"

	"github.com/hpcl-repro/epg/internal/graph"
)

// deltaNum/deltaDen bound a repaired vector's delta: Repair keeps the
// old base under a new delta while the delta's bytes (an index and a
// value per entry) stay within deltaNum/deltaDen of the base's, and
// compacts into a fresh base past that. A batch moves a few scattered
// entries of a vector, so many batches' deltas fit before one
// compaction copies the vector, and a read pays one binary search over
// at most a sixth of the vertices.
const deltaNum, deltaDen = 1, 4

// Repair returns the sketch of post, given that s is the sketch of pre:
// what BuildSketch(post, k) would return, bit for bit, at a cost that
// follows what changed between the two adjacencies, not the size of the
// graph (ARCHITECTURE.md "Streaming mutations" has the argument). postIn
// is post's in-adjacency, post itself on an undirected graph; r is the
// scratch the vectors are repaired in, which one caller at a time reuses
// across calls. Readers hold s outside the lock, so it is never written.
// Each vector of the result is s's own when the batch moved none of its
// entries; s's base under a new delta of the entries that differ from
// it, while that delta stays within deltaNum/deltaDen of the base; and a
// fresh base past that. A landmark entering the top-k has no vector to
// repair and is built whole.
func (s *Sketch) Repair(r *repairer, pre, post, postIn *graph.CSR) *Sketch {
	k := len(s.landmarks)
	out := &Sketch{landmarks: topDegree(post, k)}
	if k == 0 {
		return out
	}
	out.hops = make([]*sketchVec[int32], k)
	if s.dist != nil {
		out.dist = make([]*sketchVec[float64], k)
	}
	r.begin(pre, post, postIn)
	for li, l := range out.landmarks {
		from := slices.Index(s.landmarks, l)
		if from < 0 {
			out.fill(&r.builder, post, li)
			continue
		}
		out.hops[li] = repairVec(r, &r.hops, s.hops[from], -1, false)
		if s.dist != nil {
			out.dist[li] = repairVec(r, &r.dist, s.dist[from], math.Inf(1), true)
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

// repairer is the scratch of Repair, reused across calls: the diff, one
// dense vector per element type that a landmark vector is repaired in,
// the vertex lists, and a builder, whose heap both phases run on and
// which builds a landmark entering the top-k. Per vector, mark[v] ==
// epoch: v has been a candidate; epoch+1: it is affected; wrote[v] ==
// epoch: the repair has written v. Each vector takes two stamps, and
// both stamp arrays are cleared when the counter would wrap.
type repairer struct {
	post, in                 *graph.CSR
	gone, came               []arc
	mark, wrote              []uint32
	epoch                    uint32
	affected, written, delta []graph.VID
	hops                     []int32
	dist                     []float64
	builder
}

// begin readies r for one Repair. It fills gone and came from
// graph.Diff of pre and the post rows, not from a batch report: it must
// also see a weight lowered by a duplicate insert or changed by a delete
// and re-insert.
func (r *repairer) begin(pre, post, postIn *graph.CSR) {
	r.post, r.in = post, postIn
	r.gone, r.came = r.gone[:0], r.came[:0]
	for c := range graph.Diff(pre, post) {
		rw := c.Kind == graph.Reweighed
		if c.Kind != graph.Came {
			r.gone = append(r.gone, arc{u: c.Src, v: c.Dst, w: float64(c.OldW), reweigh: rw})
		}
		if c.Kind != graph.Gone {
			r.came = append(r.came, arc{u: c.Src, v: c.Dst, w: float64(c.NewW), reweigh: rw})
		}
	}
	if n := post.NumVertices; len(r.mark) != n {
		r.mark, r.wrote, r.epoch = make([]uint32, n), make([]uint32, n), 0
	}
	r.heap.reset(post.NumVertices)
}

// next takes the stamps of the next vector's repair.
func (r *repairer) next() {
	if r.epoch > math.MaxUint32-3 {
		clear(r.mark)
		clear(r.wrote)
		r.epoch = 0
	}
	r.epoch += 2
	r.written = r.written[:0]
}

// weightAt is the weight of a row's i-th entry: 1 when it carries none.
func weightAt(ws []float32, i int) float64 {
	if ws == nil {
		return 1
	}
	return float64(ws[i])
}

// vec is one landmark vector under repair, dense in the repairer's
// scratch: hop counts (unreached -1, everything read at unit weight) or
// weighted distances (unreached +Inf), in float64 either way — a hop
// count converts exactly.
type vec[D int32 | float64] struct {
	r         *repairer
	d         []D
	unreached D
	weighted  bool
}

// repairVec returns old repaired, working in the dense scratch *d.
func repairVec[D int32 | float64](r *repairer, d *[]D, old *sketchVec[D], unreached D, weighted bool) *sketchVec[D] {
	if len(r.gone) == 0 && len(r.came) == 0 { // a refresh: nothing can move
		return old
	}
	if len(*d) != len(old.base) {
		*d = make([]D, len(old.base))
	}
	old.materialize(*d)
	r.next()
	x := &vec[D]{r: r, d: *d, unreached: unreached, weighted: weighted}
	x.resettle(x.affected())
	return x.publish(old)
}

func (x *vec[D]) at(v graph.VID) float64 {
	if val := x.d[v]; val != x.unreached {
		return float64(val)
	}
	return math.Inf(1)
}

func (x *vec[D]) set(v graph.VID, val D) {
	if r := x.r; r.wrote[v] != r.epoch {
		r.wrote[v] = r.epoch
		r.written = append(r.written, v)
	}
	x.d[v] = val
}

// publish turns the repaired dense vector into a published one: old
// itself when no entry moved; else old's base under the merge of old's
// delta and the written entries, dropping those equal to the base, while
// that stays within deltaNum/deltaDen of the base's bytes; else a fresh
// base.
func (x *vec[D]) publish(old *sketchVec[D]) *sketchVec[D] {
	r := x.r
	if !slices.ContainsFunc(r.written, func(v graph.VID) bool { return x.d[v] != old.at(v) }) {
		return old
	}
	delta := append(append(r.delta[:0], old.idx...), r.written...)
	slices.Sort(delta)
	delta = slices.DeleteFunc(slices.Compact(delta), func(v graph.VID) bool { return x.d[v] == old.base[v] })
	r.delta = delta
	var zero D
	size := unsafe.Sizeof(zero)
	if uintptr(len(delta))*(unsafe.Sizeof(graph.VID(0))+size)*deltaDen > uintptr(len(old.base))*size*deltaNum {
		return &sketchVec[D]{base: slices.Clone(x.d)}
	}
	out := &sketchVec[D]{base: old.base, idx: slices.Clone(delta), val: make([]D, len(delta))}
	for i, v := range delta {
		out.val[i] = x.d[v]
	}
	return out
}

// row reads v's row of c through the builder's row buffer: the next
// row read overwrites a merged one.
func (x *vec[D]) row(c *graph.CSR, v graph.VID) ([]graph.VID, []float32) {
	if !x.weighted {
		adj, _ := c.Row(v, &x.r.rows)
		return adj, nil
	}
	return c.WeightedRowBuf(v, &x.r.rows)
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
	queued, hit := r.epoch, r.epoch+1
	h, affected := &r.heap, r.affected[:0]
	candidate := func(v graph.VID, dv float64) {
		if r.mark[v] != queued && r.mark[v] != hit {
			r.mark[v] = queued
			h.push(v, dv)
		}
	}
	for _, a := range r.gone {
		w, ok := x.arcWeight(a)
		if dv := x.at(a.v); ok && dv < inf && x.at(a.u)+w == dv {
			candidate(a.v, dv)
		}
	}
	for len(h.items) > 0 {
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
	r.affected = affected
	return affected
}

// resettle is phase B: reset the affected, reseed each from its
// in-neighbors, relax every came entry, and run Dijkstra from those
// seeds only: no entry of post can then lower a value and every value is
// attained, which is the fixpoint BuildSketch computes.
func (x *vec[D]) resettle(affected []graph.VID) {
	r, h := x.r, &x.r.heap
	relax := func(v graph.VID, c float64) {
		if c < x.at(v) {
			x.set(v, D(c))
			h.push(v, c)
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
	for len(h.items) > 0 {
		it := h.pop()
		adj, ws := x.row(r.post, it.v)
		for i, u := range adj {
			relax(u, it.d+weightAt(ws, i))
		}
	}
}
