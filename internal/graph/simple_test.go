package graph

import (
	"sync"
	"sync/atomic"
	"testing"
)

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
			t.Fatalf("directed %v: header %+v does not describe the edge list", directed, g)
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

// HomogenizeShared hands every caller of one unedited list one graph,
// concurrent callers included; an edit in place, a copy of the list or
// a call on another list gets a new one, and a list that fails Validate
// leaves the memo as it was. Memoized reads the memo without building.
func TestHomogenizeSharedOneGraphPerList(t *testing.T) {
	el := randomEdgeList(5, 64, 512, true)
	if Memoized(el) != nil {
		t.Fatal("Memoized found a graph for a list never homogenized")
	}
	got := make([]*Simple, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = HomogenizeShared(el)
		}()
	}
	wg.Wait()
	for _, g := range got {
		if g == nil || g != got[0] {
			t.Fatal("concurrent callers of one list got different graphs")
		}
	}
	shared := func(el *EdgeList) *Simple {
		g, err := HomogenizeShared(el)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	if _, err := HomogenizeShared(&EdgeList{NumVertices: 2, Edges: []Edge{{Src: 0, Dst: 2}}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if shared(el) != got[0] {
		t.Fatal("a failed call evicted the last list's graph")
	}
	if Memoized(el) != got[0] {
		t.Fatal("Memoized did not find the list's graph")
	}
	cp := *el
	cp.Edges = append([]Edge(nil), el.Edges...)
	if shared(&cp) == got[0] {
		t.Fatal("a copy of the list got its graph")
	}
	if Memoized(el) != nil || Memoized(&cp) == nil {
		t.Fatal("Memoized kept the list the copy replaced")
	}
	shared(el)
	el.Edges[7].W /= 2
	if Memoized(el) != nil {
		t.Fatal("Memoized found a graph for a list edited in place")
	}
	edited := shared(el)
	want, err := Homogenize(el)
	if err != nil {
		t.Fatal(err)
	}
	if edited == got[0] || edited == want || !csrEqual(edited.Out, want.Out) {
		t.Fatal("an edit in place did not get its own graph, equal to a fresh build")
	}
}

// Derive builds a kind once per graph and param however many callers
// ask at once, and keeps the last two params asked of it: alternating
// two params builds each once, and a third evicts the one asked least
// recently, which then builds again. The compressed sibling of a CSR is
// one per graph.
func TestDeriveBuildsOncePerParam(t *testing.T) {
	g, err := Homogenize(randomEdgeList(5, 64, 512, true))
	if err != nil {
		t.Fatal(err)
	}
	type kind struct{}
	var builds atomic.Int32
	derive := func(p int) *int {
		return Derive(g, kind{}, p, func() *int { builds.Add(1); return &p })
	}
	got := make([]*int, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = derive(32)
		}()
	}
	wg.Wait()
	for _, p := range got {
		if p != got[0] || *p != 32 {
			t.Fatalf("concurrent callers got different values: %v", got)
		}
	}
	at64 := derive(64)
	if derive(64) != at64 || derive(32) != got[0] || builds.Load() != 2 {
		t.Fatalf("%d builds for params 32, 64, 64, 32; want 2", builds.Load())
	}
	// 32 was asked last, so 8 evicts 64 and keeps 32.
	if *derive(8) != 8 || derive(32) != got[0] || builds.Load() != 3 {
		t.Fatalf("%d builds after 8 and 32 again; want 3", builds.Load())
	}
	if again := derive(64); again == at64 || *again != 64 || builds.Load() != 4 {
		t.Fatalf("%d builds after the evicted 64 again; want 4 and a new value", builds.Load())
	}
	if g.Compressed(g.Out) != g.Compressed(g.Out) {
		t.Fatal("the compressed sibling of Out is built twice")
	}
}
