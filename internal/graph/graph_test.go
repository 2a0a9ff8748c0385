package graph

import (
	"testing"
	"testing/quick"

	"github.com/hpcl-repro/epg/internal/xrand"
)

func smallEdgeList() *EdgeList {
	return &EdgeList{
		NumVertices: 5,
		Edges: []Edge{
			{0, 1, 0.5}, {0, 2, 0.25}, {1, 2, 1.0},
			{3, 4, 0.75}, {2, 3, 0.125}, {0, 0, 0.5}, // self-loop
		},
		Weighted: true,
		Directed: false,
	}
}

func TestEdgeListValidate(t *testing.T) {
	el := smallEdgeList()
	if err := el.Validate(); err != nil {
		t.Fatalf("valid edge list rejected: %v", err)
	}
	bad := &EdgeList{NumVertices: 2, Edges: []Edge{{0, 5, 0}}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range edge accepted")
	}
	badW := &EdgeList{NumVertices: 2, Edges: []Edge{{0, 1, 2.5}}, Weighted: true}
	if err := badW.Validate(); err == nil {
		t.Error("out-of-range weight accepted")
	}
	if err := (&EdgeList{NumVertices: 0}).Validate(); err == nil {
		t.Error("zero-vertex list accepted")
	}
}

func TestBuildCSRDirected(t *testing.T) {
	el := smallEdgeList()
	c := BuildCSR(el, BuildOptions{DropSelfLoops: true, Sort: true})
	if err := c.Validate(); err != nil {
		t.Fatalf("CSR invalid: %v", err)
	}
	if got := c.NumEdges(); got != 5 { // 6 edges minus self-loop
		t.Errorf("edges = %d, want 5", got)
	}
	wantAdj := map[VID][]VID{0: {1, 2}, 1: {2}, 2: {3}, 3: {4}, 4: {}}
	for v, want := range wantAdj {
		got := c.Neighbors(v)
		if len(got) != len(want) {
			t.Fatalf("vertex %d neighbors %v, want %v", v, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("vertex %d neighbors %v, want %v", v, got, want)
			}
		}
	}
}

func TestBuildCSRSymmetrize(t *testing.T) {
	el := smallEdgeList()
	c := BuildCSR(el, BuildOptions{Symmetrize: true, DropSelfLoops: true, Sort: true})
	if err := c.Validate(); err != nil {
		t.Fatalf("CSR invalid: %v", err)
	}
	if got := c.NumEdges(); got != 10 {
		t.Errorf("edges = %d, want 10", got)
	}
	// Symmetry: u in adj(v) iff v in adj(u).
	for v := 0; v < c.NumVertices; v++ {
		for _, u := range c.Neighbors(VID(v)) {
			if !c.HasEdge(u, VID(v)) {
				t.Errorf("edge %d->%d present but reverse missing", v, u)
			}
		}
	}
}

func TestBuildCSRWeightsFollowEdges(t *testing.T) {
	el := &EdgeList{
		NumVertices: 3,
		Edges:       []Edge{{0, 1, 0.5}, {0, 2, 0.25}},
		Weighted:    true,
	}
	c := BuildCSR(el, BuildOptions{Sort: true})
	adj, w := c.Neighbors(0), c.NeighborWeights(0)
	for i := range adj {
		var want float32
		switch adj[i] {
		case 1:
			want = 0.5
		case 2:
			want = 0.25
		}
		if w[i] != want {
			t.Errorf("weight for 0->%d = %v, want %v", adj[i], w[i], want)
		}
	}
}

func TestBuildCSRDedup(t *testing.T) {
	el := &EdgeList{
		NumVertices: 3,
		Edges:       []Edge{{0, 1, 0}, {0, 1, 0}, {0, 2, 0}, {0, 1, 0}},
	}
	c := BuildCSR(el, BuildOptions{Dedup: true})
	if got := c.Degree(0); got != 2 {
		t.Errorf("deduped degree = %d, want 2", got)
	}
}

func TestTranspose(t *testing.T) {
	el := smallEdgeList()
	c := BuildCSR(el, BuildOptions{DropSelfLoops: true, Sort: true})
	tr := Transpose(c, 2)
	if err := tr.Validate(); err != nil {
		t.Fatalf("transpose invalid: %v", err)
	}
	if tr.NumEdges() != c.NumEdges() {
		t.Fatalf("transpose edges %d != %d", tr.NumEdges(), c.NumEdges())
	}
	tr.SortAdjacency()
	// v in adjT(u) iff u in adj(v)
	for v := 0; v < c.NumVertices; v++ {
		for _, u := range c.Neighbors(VID(v)) {
			if !tr.HasEdge(u, VID(v)) {
				t.Errorf("transpose missing %d->%d", u, v)
			}
		}
	}
	// Weight preservation under double transpose.
	trtr := Transpose(tr, 1)
	trtr.SortAdjacency()
	c2 := BuildCSR(el, BuildOptions{DropSelfLoops: true, Sort: true})
	if trtr.NumEdges() != c2.NumEdges() {
		t.Errorf("double transpose changed edge count")
	}
}

func TestCSRValidateCatchesCorruption(t *testing.T) {
	el := smallEdgeList()
	c := BuildCSR(el, BuildOptions{})
	c.Offsets[1] = -1
	if err := c.Validate(); err == nil {
		t.Error("non-monotone offsets accepted")
	}
	c = BuildCSR(el, BuildOptions{})
	c.Adj[0] = VID(c.NumVertices + 3)
	if err := c.Validate(); err == nil {
		t.Error("out-of-range adj accepted")
	}
}

func randomEdgeList(seed uint64, n, m int, weighted bool) *EdgeList {
	r := xrand.New(seed)
	el := &EdgeList{NumVertices: n, Weighted: weighted, Edges: make([]Edge, m)}
	for i := range el.Edges {
		e := Edge{Src: VID(r.Intn(n)), Dst: VID(r.Intn(n))}
		if weighted {
			e.W = r.Float32()/2 + 0.25
		}
		el.Edges[i] = e
	}
	return el
}

// Property: sum of CSR degrees equals stored edges, and the builder is
// deterministic across worker counts.
func TestBuildCSRDeterministicAcrossWorkers(t *testing.T) {
	f := func(seed uint64) bool {
		el := randomEdgeList(seed, 64, 512, true)
		a := BuildCSR(el, BuildOptions{Workers: 1, Symmetrize: true, Sort: true})
		b := BuildCSR(el, BuildOptions{Workers: 4, Symmetrize: true, Sort: true})
		if len(a.Adj) != len(b.Adj) {
			return false
		}
		for i := range a.Adj {
			if a.Adj[i] != b.Adj[i] || a.Weights[i] != b.Weights[i] {
				return false
			}
		}
		for v := 0; v <= 64; v++ {
			if a.Offsets[v] != b.Offsets[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: degree sum equals 2x edge count when symmetrized (minus
// dropped self-loops counted once each direction).
func TestDegreeSumProperty(t *testing.T) {
	f := func(seed uint64) bool {
		el := randomEdgeList(seed, 50, 300, false)
		c := BuildCSR(el, BuildOptions{Symmetrize: true})
		var sum int64
		for v := 0; v < c.NumVertices; v++ {
			sum += c.Degree(VID(v))
		}
		return sum == c.NumEdges() && sum == int64(2*len(el.Edges))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSortAdjacencyIsSorted(t *testing.T) {
	el := randomEdgeList(7, 40, 400, true)
	c := BuildCSR(el, BuildOptions{Symmetrize: true, Sort: true})
	for v := 0; v < c.NumVertices; v++ {
		adj := c.Neighbors(VID(v))
		for i := 1; i < len(adj); i++ {
			if adj[i-1] > adj[i] {
				t.Fatalf("vertex %d adjacency not sorted", v)
			}
		}
	}
}

func TestHasEdge(t *testing.T) {
	el := &EdgeList{NumVertices: 4, Edges: []Edge{{0, 2, 0}, {0, 3, 0}}}
	c := BuildCSR(el, BuildOptions{Sort: true})
	if !c.HasEdge(0, 2) || !c.HasEdge(0, 3) {
		t.Error("existing edges not found")
	}
	if c.HasEdge(0, 1) || c.HasEdge(2, 0) {
		t.Error("phantom edges found")
	}
}

func TestOutDegrees(t *testing.T) {
	el := smallEdgeList()
	c := BuildCSR(el, BuildOptions{DropSelfLoops: true})
	d := c.OutDegrees()
	want := []int64{2, 1, 1, 1, 0}
	for v, w := range want {
		if d[v] != w {
			t.Errorf("degree[%d] = %d, want %d", v, d[v], w)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	el := &EdgeList{NumVertices: 3}
	c := BuildCSR(el, BuildOptions{Sort: true})
	if err := c.Validate(); err != nil {
		t.Fatalf("empty CSR invalid: %v", err)
	}
	if c.NumEdges() != 0 {
		t.Error("empty graph has edges")
	}
	tr := Transpose(c, 1)
	if tr.NumEdges() != 0 {
		t.Error("empty transpose has edges")
	}
}

func BenchmarkBuildCSR(b *testing.B) {
	el := randomEdgeList(1, 1<<14, 1<<18, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildCSR(el, BuildOptions{Symmetrize: true})
	}
}

// BenchmarkBuildCSRSorted is the build phase as every engine and the
// server pay for it (symmetrize, drop loops, sort, dedup) on a weighted
// edge list whose endpoints are skewed toward low IDs, so that a few
// hub rows hold a large share of the entries as in a Kronecker graph.
func BenchmarkBuildCSRSorted(b *testing.B) {
	const n, m = 1 << 15, 1 << 19
	r := xrand.New(1)
	el := &EdgeList{NumVertices: n, Weighted: true, Edges: make([]Edge, m)}
	for i := range el.Edges {
		el.Edges[i] = Edge{Src: VID(r.Intn(r.Intn(r.Intn(n)+1) + 1)), Dst: VID(r.Intn(r.Intn(n) + 1)), W: r.Float32()}
	}
	b.SetBytes(int64(m) * 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildCSR(el, BuildOptions{Symmetrize: true, DropSelfLoops: true, Dedup: true, Sort: true})
	}
}
