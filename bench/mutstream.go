package main

import (
	"sort"

	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/xrand"
)

// mutStream generates mutation batches over an undirected, weighted
// graph such that, over the whole life of the stream, every undirected
// edge is touched at most once: deletes are drawn from the original
// graph's edges, inserts from its non-edges, and no pair is ever
// revisited. The stream is a pure function of (graph, seed).
//
// The restriction keeps the benchmark off a known defect (ROADMAP item
// 0, TestReproStaleAddWCC): inserting an edge in one batch and deleting
// it in a later one, with both replayed before a single incremental
// WCC, leaves a stale union. Lift it when that item lands.
type mutStream struct {
	csr     *graph.CSR // sorted, deduplicated, symmetrized: the original graph
	rng     *xrand.RNG
	used    map[uint64]struct{} // undirected pairs already touched
	deleted int
}

func newMutStream(csr *graph.CSR, seed uint64) *mutStream {
	return &mutStream{csr: csr, rng: xrand.New(xrand.Mix64(seed ^ 0x6d757473)), used: map[uint64]struct{}{}}
}

// pairKey identifies the undirected pair {u, v}.
func pairKey(u, v graph.VID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// take marks {u, v} touched; it reports false if it already was.
func (s *mutStream) take(u, v graph.VID) bool {
	k := pairKey(u, v)
	if _, dup := s.used[k]; dup {
		return false
	}
	s.used[k] = struct{}{}
	return true
}

// next returns a batch of the given numbers of inserts and deletes in a
// seed-determined interleaving. It panics if the stream would delete more than half of the
// graph's edges, which the fixed schedules never approach.
func (s *mutStream) next(inserts, deletes int) graph.Batch {
	n := s.csr.NumVertices
	edges := int(s.csr.NumEdges())
	// Keep at least half the undirected edges (each stored twice), so
	// rejection sampling stays cheap and the graph stays itself.
	if 4*(s.deleted+deletes) > edges {
		panic("bench: mutation stream exhausted the graph's untouched edges")
	}
	b := make(graph.Batch, 0, inserts+deletes)
	for inserts+deletes > 0 {
		if s.rng.Intn(inserts+deletes) < deletes {
			// A uniformly sampled stored (directed) entry names its
			// undirected edge.
			idx := int64(s.rng.Intn(edges))
			v := s.csr.Adj[idx]
			u := rowOf(s.csr, idx)
			if !s.take(u, v) {
				continue
			}
			b = append(b, graph.Mutation{Op: graph.MutDelete, Src: u, Dst: v})
			s.deleted++
			deletes--
			continue
		}
		u, v := graph.VID(s.rng.Intn(n)), graph.VID(s.rng.Intn(n))
		if u == v || s.csr.HasEdge(u, v) || !s.take(u, v) {
			continue
		}
		b = append(b, graph.Mutation{Op: graph.MutInsert, Src: u, Dst: v, W: 1 - s.rng.Float32()})
		inserts--
	}
	return b
}

// rowOf returns the source vertex of the idx-th stored adjacency entry.
func rowOf(c *graph.CSR, idx int64) graph.VID {
	return graph.VID(sort.Search(c.NumVertices, func(v int) bool { return c.Offsets[v+1] > idx }))
}

// applyToEdgeList returns the undirected edge list of base after the
// batches: every stored u < v entry of base not deleted, plus the
// inserts. Because no pair is touched twice, this needs no replay.
func applyToEdgeList(base *graph.CSR, batches []graph.Batch) *graph.EdgeList {
	deleted := map[uint64]struct{}{}
	el := &graph.EdgeList{NumVertices: base.NumVertices, Weighted: base.Weights != nil}
	for _, b := range batches {
		for _, mu := range b {
			if mu.Op == graph.MutDelete {
				deleted[pairKey(mu.Src, mu.Dst)] = struct{}{}
			} else {
				el.Edges = append(el.Edges, graph.Edge{Src: mu.Src, Dst: mu.Dst, W: mu.W})
			}
		}
	}
	for u := 0; u < base.NumVertices; u++ {
		ws := base.NeighborWeights(graph.VID(u))
		for i, v := range base.Neighbors(graph.VID(u)) {
			if v <= graph.VID(u) {
				continue
			}
			if _, gone := deleted[pairKey(graph.VID(u), v)]; gone {
				continue
			}
			e := graph.Edge{Src: graph.VID(u), Dst: v}
			if ws != nil {
				e.W = ws[i]
			}
			el.Edges = append(el.Edges, e)
		}
	}
	return el
}
