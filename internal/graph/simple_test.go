package graph

import "testing"

// Homogenize is the one canonical build: Out is BuildCSR under the full
// option set, In the sorted transpose of a directed graph and nil for
// an undirected one, and an edge list that fails Validate is an error.
func TestHomogenize(t *testing.T) {
	canonical := BuildOptions{DropSelfLoops: true, Dedup: true, Sort: true}
	for _, directed := range []bool{false, true} {
		// Past the serial cutoff, so the transpose is scattered by
		// several workers.
		el := randomEdgeList(5, 512, 3*buildSerialCutoff, true)
		el.Directed = directed
		g, err := Homogenize(el)
		if err != nil {
			t.Fatal(err)
		}
		if g.NumVertices != el.NumVertices || g.InputEdges != len(el.Edges) || g.Directed != directed || !g.Weighted {
			t.Fatalf("directed %v: header %+v does not describe the edge list", directed, *g)
		}
		opt := canonical
		opt.Symmetrize = !directed
		if !csrEqual(g.Out, BuildCSR(el, opt)) {
			t.Fatalf("directed %v: Out is not the canonical build", directed)
		}
		if !directed {
			if g.In != nil {
				t.Fatal("undirected: In must be nil")
			}
			continue
		}
		want := Transpose(g.Out, 1)
		want.SortAdjacency()
		if !csrEqual(g.In, want) {
			t.Fatal("directed: In is not the sorted transpose of Out")
		}
	}
	if _, err := Homogenize(&EdgeList{NumVertices: 2, Edges: []Edge{{Src: 0, Dst: 2}}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}
