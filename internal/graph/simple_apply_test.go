package graph_test

// An external test package: kron-10 comes from the kronecker package,
// which imports graph.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/kronecker"
	"github.com/hpcl-repro/epg/internal/xrand"
)

// edgeList reconstructs the edge list g represents: every stored
// out-edge with its weight, an undirected edge once — the exact input
// from which a cold Homogenize reproduces g.
func edgeList(g *graph.Simple) *graph.EdgeList {
	c := g.Out
	edges := int(c.NumEdges())
	if !g.Directed {
		edges /= 2 // both orientations are stored, one is listed
	}
	el := &graph.EdgeList{NumVertices: c.NumVertices, Weighted: g.Weighted, Directed: g.Directed,
		Edges: make([]graph.Edge, 0, edges)}
	var buf graph.RowBuf
	for v := 0; v < c.NumVertices; v++ {
		adj, ws := c.WeightedRowBuf(graph.VID(v), &buf)
		for i, u := range adj {
			if !g.Directed && u < graph.VID(v) {
				continue
			}
			e := graph.Edge{Src: graph.VID(v), Dst: u}
			if ws != nil {
				e.W = ws[i]
			}
			el.Edges = append(el.Edges, e)
		}
	}
	return el
}

// flatCopy is a deep copy of c's rows in flat form.
func flatCopy(c *graph.CSR) *graph.CSR {
	f := c.Flat()
	return &graph.CSR{NumVertices: f.NumVertices, Offsets: slices.Clone(f.Offsets),
		Adj: slices.Clone(f.Adj), Weights: slices.Clone(f.Weights)}
}

// sameRows reports where the flat forms of a and b differ, weights by
// their bits; "" when they are byte-equal.
func sameRows(a, b *graph.CSR) string {
	a, b = a.Flat(), b.Flat()
	bits := func(ws []float32) []uint32 {
		out := make([]uint32, len(ws))
		for i, w := range ws {
			out[i] = math.Float32bits(w)
		}
		return out
	}
	switch {
	case a.NumVertices != b.NumVertices:
		return fmt.Sprintf("%d vs %d vertices", a.NumVertices, b.NumVertices)
	case !slices.Equal(a.Offsets, b.Offsets):
		return "offsets"
	case !slices.Equal(a.Adj, b.Adj):
		return "adjacency"
	case (a.Weights == nil) != (b.Weights == nil) || !slices.Equal(bits(a.Weights), bits(b.Weights)):
		return "weights"
	}
	return ""
}

// applyBatch draws size ops against g's out-rows: a third deletes of a
// stored edge, a sixth re-inserts of one at a fresh weight (lowering it
// or not), the rest inserts between uniform endpoints, self-loops
// included.
func applyBatch(r *xrand.RNG, g *graph.Simple, size int) graph.Batch {
	n := g.NumVertices
	var buf graph.RowBuf
	b := make(graph.Batch, 0, size)
	for len(b) < size {
		mu := graph.Mutation{Op: graph.MutInsert, Src: graph.VID(r.Intn(n)), Dst: graph.VID(r.Intn(n)), W: float32(1 - r.Float64())}
		if p := r.Float64(); p < 0.5 {
			adj, _ := g.Out.Row(mu.Src, &buf)
			if len(adj) == 0 {
				continue
			}
			mu.Dst = adj[r.Intn(len(adj))]
			if p < 1.0/3 {
				mu.Op, mu.W = graph.MutDelete, 0
			}
		}
		b = append(b, mu)
	}
	return b
}

type applyProbeKind struct{}

// Simple.Apply equals a cold build: after every batch of a stream that
// crosses overlay epochs and a compaction, the new graph's Out (and In
// when directed) is byte-equal to Homogenize of the edge list it
// represents, its header is that build's (InputEdges the normalized
// list's length), it derives afresh, and the graph before the batch is
// unchanged.
func TestSimpleApplyEqualsColdBuild(t *testing.T) {
	const batches, size = 10, 160
	for _, directed := range []bool{false, true} {
		el := kronecker.Generate(kronecker.Params{Scale: 10, Seed: 9})
		el.Directed = directed
		g, err := graph.Homogenize(el)
		if err != nil {
			t.Fatal(err)
		}
		r := xrand.New(17)
		overlays, compactions := 0, 0
		for i := 1; i <= batches; i++ {
			wasOverlay := g.Out.Offsets == nil
			prevOut := flatCopy(g.Out)
			var prevIn *graph.CSR
			if directed {
				prevIn = flatCopy(g.In)
			}
			graph.Derive(g, applyProbeKind{}, 0, func() int { return i })

			next, _, _, err := g.Apply(applyBatch(r, g, size))
			if err != nil {
				t.Fatal(err)
			}
			if d := sameRows(g.Out, prevOut); d != "" {
				t.Fatalf("directed=%v batch %d: Apply changed the pre-batch Out's %s", directed, i, d)
			}
			if directed {
				if d := sameRows(g.In, prevIn); d != "" {
					t.Fatalf("directed=%v batch %d: Apply changed the pre-batch In's %s", directed, i, d)
				}
			}

			want, err := graph.Homogenize(edgeList(next))
			if err != nil {
				t.Fatal(err)
			}
			if d := sameRows(next.Out, want.Out); d != "" {
				t.Fatalf("directed=%v batch %d: Out differs from a cold build in its %s", directed, i, d)
			}
			if directed {
				if d := sameRows(next.In, want.In); d != "" {
					t.Fatalf("directed=%v batch %d: In differs from a cold build in its %s", directed, i, d)
				}
			} else if next.In != nil {
				t.Fatalf("undirected batch %d: In must stay nil", i)
			}
			if next.InputEdges != want.InputEdges || next.NumVertices != want.NumVertices ||
				next.Directed != want.Directed || next.Weighted != want.Weighted {
				t.Fatalf("directed=%v batch %d: header {%d %d %v %v}, a cold build's {%d %d %v %v}", directed, i,
					next.InputEdges, next.NumVertices, next.Directed, next.Weighted,
					want.InputEdges, want.NumVertices, want.Directed, want.Weighted)
			}
			if got := graph.Derive(next, applyProbeKind{}, 0, func() int { return -i }); got != -i {
				t.Fatalf("directed=%v batch %d: the new graph reads the old graph's derived value %d", directed, i, got)
			}

			switch {
			case next.Out.Offsets == nil:
				overlays++
			case wasOverlay:
				compactions++
			}
			g = next
		}
		t.Logf("directed=%v: %d of %d epochs overlays, %d compactions", directed, overlays, batches, compactions)
		if overlays < 2 || compactions == 0 {
			t.Fatalf("directed=%v: %d overlays and %d compactions; the wall needs overlays and a compaction", directed, overlays, compactions)
		}
	}
}
