package server

import (
	"math"
	"runtime"
	"slices"

	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/parallel"
)

// Sketch is a landmark-distance oracle: for K high-degree landmarks it
// stores exact single-source distances to every vertex, and estimates
// dist(u,v) as min over landmarks L of d(L,u)+d(L,v) — an upper bound
// by the triangle inequality, exact whenever a shortest u-v path runs
// through a landmark. This is the degraded-mode answer: O(K) lookups
// instead of a traversal, precision traded for immediacy. Nothing in a
// Sketch is written after it is returned: readers hold it outside any
// lock, and a repaired sketch shares its vectors' bases.
type Sketch struct {
	landmarks []graph.VID
	hops      []*sketchVec[int32]   // hops[l] at v; -1 unreachable
	dist      []*sketchVec[float64] // weighted distances; nil on unweighted datasets
}

// sketchVec is one landmark vector: a flat base, which later vectors
// share, under a delta of the entries that differ from it — idx
// ascending, val[i] the value at idx[i]. BuildSketch and a compaction
// make vectors with no delta; Repair keeps a delta within deltaNum/deltaDen
// of the base's bytes.
type sketchVec[D int32 | float64] struct {
	base []D
	idx  []graph.VID
	val  []D
}

// at reads v's entry through the delta.
func (x *sketchVec[D]) at(v graph.VID) D {
	if i, ok := slices.BinarySearch(x.idx, v); ok {
		return x.val[i]
	}
	return x.base[v]
}

// materialize writes the whole vector into d, len(base) long.
func (x *sketchVec[D]) materialize(d []D) {
	copy(d, x.base)
	for i, v := range x.idx {
		d[v] = x.val[i]
	}
}

// BuildSketch selects the k highest-degree vertices (ties broken
// toward lower ID, so the landmark set is deterministic) and builds
// each landmark's vectors — one serial BFS, plus one serial Dijkstra
// when the CSR is weighted — on min(k, GOMAXPROCS) workers of the
// shared pool. Each worker keeps its own heap and BFS queue and each
// vector lands in its landmark's slot, so the sketch does not depend on
// the schedule. Built at startup on the homogenized CSR (a mutate or a
// refresh repairs the previous sketch instead, see Repair); the build is
// plain Go, off the modeled machine, because it is part of daemon
// startup rather than any measured phase.
func BuildSketch(c *graph.CSR, k int) *Sketch {
	s := &Sketch{landmarks: topDegree(c, k)}
	k = len(s.landmarks)
	if k == 0 {
		return s
	}
	s.hops = make([]*sketchVec[int32], k)
	if c.Weighted() {
		s.dist = make([]*sketchVec[float64], k)
	}
	workers := min(k, runtime.GOMAXPROCS(0))
	parallel.Default().Run(workers, func(w int) {
		var b builder
		for li := w; li < k; li += workers {
			s.fill(&b, c, li)
		}
	})
	return s
}

// fill builds landmark li's vectors on c with b's scratch: its hops, and
// its distances when s keeps them.
func (s *Sketch) fill(b *builder, c *graph.CSR, li int) {
	l := s.landmarks[li]
	s.hops[li] = &sketchVec[int32]{base: b.bfsHops(c, l)}
	if s.dist != nil {
		s.dist[li] = &sketchVec[float64]{base: b.dijkstra(c, l)}
	}
}

// Landmarks returns the landmark set (for logs and tests).
func (s *Sketch) Landmarks() []graph.VID { return s.landmarks }

// EstimateHops returns the sketch upper bound on the hop distance, or
// -1 if no landmark reaches both endpoints.
func (s *Sketch) EstimateHops(u, v graph.VID) float64 {
	if u == v {
		return 0
	}
	best := int32(-1)
	for _, x := range s.hops {
		hu, hv := x.at(u), x.at(v)
		if hu < 0 || hv < 0 {
			continue
		}
		if sum := hu + hv; best < 0 || sum < best {
			best = sum
		}
	}
	return float64(best)
}

// EstimateDist returns the sketch upper bound on the weighted
// distance, or -1 if unreachable via every landmark (or unweighted).
func (s *Sketch) EstimateDist(u, v graph.VID) float64 {
	if s.dist == nil {
		return -1
	}
	if u == v {
		return 0
	}
	best := math.Inf(1)
	for _, x := range s.dist {
		if sum := x.at(u) + x.at(v); sum < best {
			best = sum
		}
	}
	if math.IsInf(best, 1) {
		return -1
	}
	return best
}

// lookups is the per-estimate landmark count, for the executor's
// modeled charge.
func (s *Sketch) lookups() int { return len(s.landmarks) }

// builder is the scratch one landmark's vectors are built in, reused
// from landmark to landmark: the heap and the BFS queue.
type builder struct {
	heap  distHeap
	queue []graph.VID
}

// bfsHops is a plain serial BFS returning hop counts (-1 unreached).
func (b *builder) bfsHops(c *graph.CSR, root graph.VID) []int32 {
	hops := make([]int32, c.NumVertices)
	for i := range hops {
		hops[i] = -1
	}
	hops[root] = 0
	if cap(b.queue) < c.NumVertices {
		b.queue = make([]graph.VID, 0, c.NumVertices)
	}
	queue := append(b.queue[:0], root)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, u := range c.Neighbors(v) {
			if hops[u] < 0 {
				hops[u] = hops[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return hops
}

// topDegree returns the k highest-degree vertices of c (all of them
// when k exceeds the vertex count), degree descending and ties toward
// the lower ID: one pass keeping the best k in order, O(n*k).
func topDegree(c *graph.CSR, k int) []graph.VID {
	var top []graph.VID
	for v := 0; v < c.NumVertices && k > 0; v++ {
		// The first slot whose vertex v outranks; IDs ascend, so a tie
		// keeps its place.
		i := len(top)
		for i > 0 && c.Degree(top[i-1]) < c.Degree(graph.VID(v)) {
			i--
		}
		if i < k {
			top = slices.Insert(top[:min(len(top), k-1)], i, graph.VID(v))
		}
	}
	return top
}

// distItem is a shortest-path frontier entry.
type distItem struct {
	v graph.VID
	d float64
}

// before orders frontier entries by distance, ties toward the lower ID.
func (a distItem) before(b distItem) bool { return a.d < b.d || a.d == b.d && a.v < b.v }

// distHeap is an indexed binary min-heap of frontier entries, at most
// one per vertex, with decrease-key: the one priority queue under the
// full Dijkstra pass and the repair's two phases. pos[v] is v's slot in
// items plus one, 0 while v is not queued, so a drained heap's pos is
// all zero again and the next pass needs no clear. A lazy-deletion heap
// pushing on each strict improvement pops its live entries in the same
// order: (d, id) is a total order and every vertex's live entry is its
// least.
type distHeap struct {
	items []distItem
	pos   []int32
}

// reset readies the drained h for passes over n vertices.
func (h *distHeap) reset(n int) {
	if len(h.pos) != n {
		h.items, h.pos = make([]distItem, 0, n), make([]int32, n)
	}
}

// push queues v at d, or lowers v's queued entry to d: every caller
// pushes only a strict improvement, so an entry only ever moves up.
func (h *distHeap) push(v graph.VID, d float64) {
	i := int(h.pos[v]) - 1
	if i < 0 {
		i = len(h.items)
		h.items = append(h.items, distItem{})
	}
	h.place(i, distItem{v: v, d: d})
	for s := h.items; i > 0; {
		parent := (i - 1) / 2
		if !s[i].before(s[parent]) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *distHeap) pop() distItem {
	s := h.items
	top, n := s[0], len(s)-1
	h.place(0, s[n])
	h.pos[top.v] = 0
	s = s[:n]
	for i := 0; ; {
		child := 2*i + 1
		if child+1 < n && s[child+1].before(s[child]) {
			child++
		}
		if child >= n || !s[child].before(s[i]) {
			break
		}
		h.swap(i, child)
		i = child
	}
	h.items = s
	return top
}

func (h *distHeap) place(i int, it distItem) {
	h.items[i] = it
	h.pos[it.v] = int32(i + 1)
}

func (h *distHeap) swap(i, j int) {
	a, b := h.items[i], h.items[j]
	h.place(i, b)
	h.place(j, a)
}

// dijkstra is a plain serial shortest-path pass on b's heap.
func (b *builder) dijkstra(c *graph.CSR, root graph.VID) []float64 {
	n := c.NumVertices
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[root] = 0
	h := &b.heap
	h.reset(n)
	h.push(root, 0)
	for len(h.items) > 0 {
		it := h.pop()
		adj, ws := c.WeightedRow(it.v)
		for i, u := range adj {
			if nd := it.d + float64(ws[i]); nd < dist[u] {
				dist[u] = nd
				h.push(u, nd)
			}
		}
	}
	return dist
}
