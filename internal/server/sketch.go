package server

import (
	"math"
	"slices"

	"github.com/hpcl-repro/epg/internal/graph"
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
// toward lower ID, so the landmark set is deterministic) and runs one
// serial BFS — plus one serial Dijkstra when the CSR is weighted —
// per landmark. Built at startup on the homogenized CSR (a mutate or a
// refresh repairs the previous sketch instead, see Repair); the
// build is plain Go, off the modeled machine, because it is part of
// daemon startup rather than any measured phase.
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
	for li, l := range s.landmarks {
		s.hops[li] = &sketchVec[int32]{base: bfsHops(c, l)}
		if c.Weighted() {
			s.dist[li] = &sketchVec[float64]{base: dijkstra(c, l)}
		}
	}
	return s
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

// bfsHops is a plain serial BFS returning hop counts (-1 unreached).
func bfsHops(c *graph.CSR, root graph.VID) []int32 {
	hops := make([]int32, c.NumVertices)
	for i := range hops {
		hops[i] = -1
	}
	hops[root] = 0
	queue := []graph.VID{root}
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

// distHeap is a binary min-heap of frontier entries — the one priority
// queue under both the full Dijkstra pass and the repair's two phases.
type distHeap []distItem

func (h *distHeap) push(it distItem) {
	*h = append(*h, it)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s[i].before(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *distHeap) pop() distItem {
	s := *h
	top, n := s[0], len(s)-1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		child := 2*i + 1
		if child+1 < n && s[child+1].before(s[child]) {
			child++
		}
		if child >= n || !s[child].before(s[i]) {
			break
		}
		s[i], s[child] = s[child], s[i]
		i = child
	}
	*h = s
	return top
}

// dijkstra is a plain serial shortest-path pass (lazy-deletion heap).
func dijkstra(c *graph.CSR, root graph.VID) []float64 {
	n := c.NumVertices
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[root] = 0
	h := distHeap{{v: root, d: 0}}
	for len(h) > 0 {
		it := h.pop()
		if it.d > dist[it.v] {
			continue
		}
		adj := c.Neighbors(it.v)
		ws := c.NeighborWeights(it.v)
		for i, u := range adj {
			if nd := it.d + float64(ws[i]); nd < dist[u] {
				dist[u] = nd
				h.push(distItem{v: u, d: nd})
			}
		}
	}
	return dist
}
