package verify

import (
	"container/heap"
	"math"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
)

// Prepared is the homogenized graph references and validators read:
// the one every engine loads.
type Prepared = graph.Simple

// Prepare homogenizes an edge list the way every engine does, into a
// graph of its own (graph.Homogenize, not the shared memo every engine
// load reads), so that the references stay independent of the engines
// they check: nothing an engine under test writes can reach the oracle.
// It panics on an edge list that fails Validate: references are run on
// inputs the engines under test already accepted.
func Prepare(el *graph.EdgeList) *Prepared {
	g, err := graph.Homogenize(el)
	if err != nil {
		panic(err)
	}
	return g
}

// BFS computes the reference parent tree and level array.
func BFS(p *Prepared, root graph.VID) *engines.BFSResult {
	n := p.Out.NumVertices
	res := &engines.BFSResult{
		Root:   root,
		Parent: make([]int64, n),
		Depth:  make([]int64, n),
	}
	for i := range res.Parent {
		res.Parent[i] = engines.NoParent
		res.Depth[i] = -1
	}
	res.Parent[root] = int64(root)
	res.Depth[root] = 0
	queue := []graph.VID{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range p.Out.Neighbors(v) {
			res.EdgesExamined++
			if res.Parent[u] == engines.NoParent {
				res.Parent[u] = int64(v)
				res.Depth[u] = res.Depth[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return res
}

type distItem struct {
	v graph.VID
	d float64
}

type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any          { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// SSSP computes reference shortest-path distances with Dijkstra.
func SSSP(p *Prepared, root graph.VID) *engines.SSSPResult {
	n := p.Out.NumVertices
	res := &engines.SSSPResult{
		Root:   root,
		Dist:   make([]float64, n),
		Parent: make([]int64, n),
	}
	for i := range res.Dist {
		res.Dist[i] = math.Inf(1)
		res.Parent[i] = engines.NoParent
	}
	res.Dist[root] = 0
	res.Parent[root] = int64(root)
	h := &distHeap{{root, 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(distItem)
		if it.d > res.Dist[it.v] {
			continue
		}
		adj := p.Out.Neighbors(it.v)
		w := p.Out.NeighborWeights(it.v)
		for i, u := range adj {
			res.Relaxations++
			nd := it.d + float64(w[i])
			if nd < res.Dist[u] {
				res.Dist[u] = nd
				res.Parent[u] = int64(it.v)
				heap.Push(h, distItem{u, nd})
			}
		}
	}
	return res
}

// PageRank computes the reference float64 scores with the paper's
// homogenized L1 stopping criterion.
func PageRank(p *Prepared, opts engines.PROpts) *engines.PRResult {
	opts = opts.Normalize()
	n := p.Out.NumVertices
	rank := make([]float64, n)
	next := make([]float64, n)
	inv := 1.0 / float64(n)
	for i := range rank {
		rank[i] = inv
	}
	outDeg := p.Out.OutDegrees()
	res := &engines.PRResult{}
	for iter := 1; iter <= opts.MaxIter; iter++ {
		var dangling float64
		for v := 0; v < n; v++ {
			if outDeg[v] == 0 {
				dangling += rank[v]
			}
		}
		base := (1-opts.Damping)*inv + opts.Damping*dangling*inv
		for i := range next {
			next[i] = base
		}
		for v := 0; v < n; v++ {
			if outDeg[v] == 0 {
				continue
			}
			share := opts.Damping * rank[v] / float64(outDeg[v])
			for _, u := range p.Out.Neighbors(graph.VID(v)) {
				next[u] += share
			}
		}
		var l1 float64
		for i := range rank {
			l1 += math.Abs(next[i] - rank[i])
		}
		rank, next = next, rank
		res.Iterations = iter
		if l1 < opts.Epsilon {
			break
		}
	}
	res.Rank = rank
	return res
}

// CDLP runs synchronous label propagation for maxIter iterations.
func CDLP(p *Prepared, maxIter int) *engines.CDLPResult {
	n := p.Out.NumVertices
	label := make([]graph.VID, n)
	next := make([]graph.VID, n)
	for i := range label {
		label[i] = graph.VID(i)
	}
	counts := make(map[graph.VID]int)
	res := &engines.CDLPResult{}
	for iter := 1; iter <= maxIter; iter++ {
		changed := false
		for v := 0; v < n; v++ {
			clear(counts)
			for _, u := range p.Out.Neighbors(graph.VID(v)) {
				counts[label[u]]++
			}
			if p.In != nil {
				for _, u := range p.In.Neighbors(graph.VID(v)) {
					counts[label[u]]++
				}
			}
			next[v] = bestLabel(counts, label[v])
			if next[v] != label[v] {
				changed = true
			}
		}
		label, next = next, label
		res.Iterations = iter
		if !changed {
			break
		}
	}
	res.Label = label
	return res
}

// bestLabel returns the most frequent label, ties broken toward the
// smallest; isolated vertices keep their own label.
func bestLabel(counts map[graph.VID]int, own graph.VID) graph.VID {
	if len(counts) == 0 {
		return own
	}
	best := graph.VID(0)
	bestN := -1
	for l, c := range counts {
		if c > bestN || (c == bestN && l < best) {
			best, bestN = l, c
		}
	}
	return best
}

// LCC computes local clustering coefficients under the LDBC
// definition (see package comment).
func LCC(p *Prepared) *engines.LCCResult {
	n := p.Out.NumVertices
	coeff := make([]float64, n)
	for v := 0; v < n; v++ {
		nbrs := neighborhood(p, graph.VID(v))
		d := len(nbrs)
		if d < 2 {
			continue
		}
		links := 0
		for _, u := range nbrs {
			for _, w := range nbrs {
				if u != w && p.Out.HasEdge(u, w) {
					links++
				}
			}
		}
		coeff[v] = float64(links) / float64(d*(d-1))
	}
	return &engines.LCCResult{Coeff: coeff}
}

// neighborhood returns the sorted distinct in∪out neighbors of v,
// excluding v itself.
func neighborhood(p *Prepared, v graph.VID) []graph.VID {
	out := p.Out.Neighbors(v)
	if p.In == nil {
		return dropSelf(out, v) // already sorted and deduped
	}
	in := p.In.Neighbors(v)
	merged := make([]graph.VID, 0, len(out)+len(in))
	i, j := 0, 0
	for i < len(out) || j < len(in) {
		var next graph.VID
		switch {
		case i >= len(out):
			next = in[j]
			j++
		case j >= len(in):
			next = out[i]
			i++
		case out[i] < in[j]:
			next = out[i]
			i++
		case in[j] < out[i]:
			next = in[j]
			j++
		default:
			next = out[i]
			i++
			j++
		}
		if next == v {
			continue
		}
		if len(merged) == 0 || merged[len(merged)-1] != next {
			merged = append(merged, next)
		}
	}
	return merged
}

func dropSelf(sorted []graph.VID, v graph.VID) []graph.VID {
	out := make([]graph.VID, 0, len(sorted))
	for _, u := range sorted {
		if u != v {
			out = append(out, u)
		}
	}
	return out
}

// WCC computes weakly connected components with union-find and
// canonicalizes IDs to the minimum member.
func WCC(p *Prepared) *engines.WCCResult {
	n := p.Out.NumVertices
	parent := make([]graph.VID, n)
	for i := range parent {
		parent[i] = graph.VID(i)
	}
	var find func(v graph.VID) graph.VID
	find = func(v graph.VID) graph.VID {
		for parent[v] != v {
			parent[v] = parent[parent[v]] // path halving
			v = parent[v]
		}
		return v
	}
	union := func(a, b graph.VID) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if ra < rb { // union by min keeps canonical form cheap
			parent[rb] = ra
		} else {
			parent[ra] = rb
		}
	}
	for v := 0; v < n; v++ {
		for _, u := range p.Out.Neighbors(graph.VID(v)) {
			union(graph.VID(v), u)
		}
	}
	comp := make([]graph.VID, n)
	for v := range comp {
		comp[v] = find(graph.VID(v))
	}
	return &engines.WCCResult{Component: comp}
}
