package graph_test

// External test package: the wall generates its inputs with the
// kronecker package, which imports graph.

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/kronecker"
)

// scanVertexCut is the greedy vertex cut as it was first written, kept
// as the oracle: every edge rescans its candidate shards, or every
// shard when it has none, for the lowest-index least-loaded one.
func scanVertexCut(c *graph.CSR, shards int) (*graph.VertexCutStats, []uint8) {
	if shards > graph.MaxVertexCutShards {
		shards = graph.MaxVertexCutShards
	}
	if shards < 1 {
		shards = 1
	}
	st := &graph.VertexCutStats{
		Shards:   shards,
		Replicas: make([]uint64, c.NumVertices),
		Loads:    make([]int64, shards),
	}
	var shardOf []uint8
	for v := 0; v < c.NumVertices; v++ {
		for _, dst := range c.Neighbors(graph.VID(v)) {
			cand := st.Replicas[v] | st.Replicas[dst]
			best := -1
			var bestLoad int64
			if cand != 0 {
				for mask := cand; mask != 0; mask &= mask - 1 {
					s := bits.TrailingZeros64(mask)
					if best == -1 || st.Loads[s] < bestLoad {
						best, bestLoad = s, st.Loads[s]
					}
				}
			} else {
				for s := 0; s < shards; s++ {
					if best == -1 || st.Loads[s] < bestLoad {
						best, bestLoad = s, st.Loads[s]
					}
				}
			}
			shardOf = append(shardOf, uint8(best))
			st.Loads[best]++
			st.Replicas[v] |= 1 << uint(best)
			st.Replicas[dst] |= 1 << uint(best)
		}
	}
	for _, mask := range st.Replicas {
		st.TotalRep += int64(bits.OnesCount64(mask))
	}
	return st, shardOf
}

// vertexCutShapes are the wall's inputs: Kronecker graphs at four
// scales, and the shapes where ties decide everything — a star (every
// edge shares the hub), a path (every edge shares one endpoint with the
// last), isolated vertices between edges, and a directed list.
func vertexCutShapes(t *testing.T) []namedCSR {
	t.Helper()
	var shapes []namedCSR
	sym := graph.BuildOptions{Symmetrize: true, DropSelfLoops: true}
	for _, scale := range []int{10, 13, 14, 15} {
		el := kronecker.Generate(kronecker.Params{Scale: scale, Seed: 3})
		shapes = append(shapes, namedCSR{fmt.Sprintf("kron-%d", scale), graph.BuildCSR(el, sym)})
	}
	star, path, sparse := &graph.EdgeList{NumVertices: 200}, &graph.EdgeList{NumVertices: 200}, &graph.EdgeList{NumVertices: 300}
	for v := 1; v < 200; v++ {
		star.Edges = append(star.Edges, graph.Edge{Src: 0, Dst: graph.VID(v)})
		path.Edges = append(path.Edges, graph.Edge{Src: graph.VID(v - 1), Dst: graph.VID(v)})
	}
	for v := 0; v+7 < 300; v += 10 { // vertices 1-6 and 8-9 of every ten stay isolated
		sparse.Edges = append(sparse.Edges, graph.Edge{Src: graph.VID(v), Dst: graph.VID(v + 7)})
	}
	dir := kronecker.Generate(kronecker.Params{Scale: 11, Seed: 4})
	dir.Directed = true
	return append(shapes, namedCSR{"star", graph.BuildCSR(star, sym)}, namedCSR{"path", graph.BuildCSR(path, sym)},
		namedCSR{"isolated", graph.BuildCSR(sparse, sym)}, namedCSR{"directed kron-11", graph.BuildCSR(dir, graph.BuildOptions{DropSelfLoops: true})})
}

// namedCSR is one of the wall's inputs.
type namedCSR struct {
	name string
	c    *graph.CSR
}

// The O(1) cut against the scanning oracle: every edge's shard, every
// load, every replica mask and the replica total equal, on every shape at
// 1 to 64 shards and at the clamps (0 is 1, 65 is 64), with and without
// shardOf.
func TestGreedyVertexCutMatchesScan(t *testing.T) {
	for _, shape := range vertexCutShapes(t) {
		name, c := shape.name, shape.c
		for _, shards := range []int{0, 1, 2, 4, 7, 8, 32, 64, 65} {
			label := fmt.Sprintf("%s at %d shards", name, shards)
			want, wantOf := scanVertexCut(c, shards)
			gotOf := make([]uint8, c.NumEdges())
			got := graph.GreedyVertexCut(c, shards, gotOf)
			if got.Shards != want.Shards || got.TotalRep != want.TotalRep {
				t.Fatalf("%s: %d shards, %d replicas; the scan has %d and %d", label, got.Shards, got.TotalRep, want.Shards, want.TotalRep)
			}
			if i := firstDiff(gotOf, wantOf); i >= 0 {
				t.Fatalf("%s: edge %d goes to shard %d; the scan puts it on %d", label, i, gotOf[i], wantOf[i])
			}
			if !slices.Equal(got.Loads, want.Loads) || !slices.Equal(got.Replicas, want.Replicas) {
				t.Fatalf("%s: loads or replica masks differ from the scan's", label)
			}
			if bare := graph.GreedyVertexCut(c, shards, nil); !slices.Equal(bare.Replicas, want.Replicas) || !slices.Equal(bare.Loads, want.Loads) {
				t.Fatalf("%s: the cut without shardOf differs from the scan's", label)
			}
		}
	}
}

// firstDiff is the first index at which a and b differ, or -1.
func firstDiff(a, b []uint8) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// BenchmarkGreedyVertexCut times the cut and its scanning oracle on
// kron-13 at 1 and 32 shards.
func BenchmarkGreedyVertexCut(b *testing.B) {
	c := graph.BuildCSR(kronecker.Generate(kronecker.Params{Scale: 13, Seed: 3}), graph.BuildOptions{Symmetrize: true, DropSelfLoops: true})
	shardOf := make([]uint8, c.NumEdges())
	for _, shards := range []int{1, 32} {
		b.Run(fmt.Sprintf("mask/%d", shards), func(b *testing.B) {
			for range b.N {
				graph.GreedyVertexCut(c, shards, shardOf)
			}
		})
		b.Run(fmt.Sprintf("scan/%d", shards), func(b *testing.B) {
			for range b.N {
				scanVertexCut(c, shards)
			}
		})
	}
}
