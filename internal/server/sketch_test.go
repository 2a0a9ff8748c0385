package server

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/hpcl-repro/epg/internal/alloctest"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/harness"
	"github.com/hpcl-repro/epg/internal/verify"
	"github.com/hpcl-repro/epg/internal/xrand"
)

// sketchGraph homogenizes a dataset as the server does; its Out is the
// CSR a sketch is built on, and the whole graph what verify's
// references read.
func sketchGraph(t *testing.T, name string, seed uint64) *verify.Prepared {
	t.Helper()
	el, err := harness.ResolveDataset(name, harness.DatasetOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return verify.Prepare(el)
}

// sparseComponents is a sparse list of many components: isolated
// vertices, a pair, and random trees of 3 to 150 vertices with a
// quarter as many extra edges, their weights often tied.
func sparseComponents(directed bool) *graph.EdgeList {
	rng := xrand.New(17)
	el := &graph.EdgeList{Weighted: true, Directed: directed}
	for _, size := range []int{1, 1, 2, 3, 5, 8, 13, 40, 90, 150} {
		base := el.NumVertices
		el.NumVertices += size
		for i := 1; i < size; i++ { // a random tree keeps the piece one component
			w := []float32{0.5, 0.25, 1, 1 - rng.Float32()}[rng.Intn(4)]
			el.Edges = append(el.Edges, graph.Edge{Src: graph.VID(base + rng.Intn(i)), Dst: graph.VID(base + i), W: w})
		}
		for i := 0; i < size/4; i++ {
			u, v := base+rng.Intn(size), base+rng.Intn(size)
			el.Edges = append(el.Edges, graph.Edge{Src: graph.VID(u), Dst: graph.VID(v), W: 1 - rng.Float32()})
		}
	}
	return el
}

// TestBuildSketchMatchesReference holds every landmark vector to an
// oracle that shares no code with the sketch: the hops to verify.BFS's
// depths and the distances to verify.SSSP's, bit for bit, on one worker
// and on the default pool. Repair is checked against BuildSketch, so
// this is what anchors both.
func TestBuildSketchMatchesReference(t *testing.T) {
	graphs := map[string]*verify.Prepared{
		"kron-8":            sketchGraph(t, "kron-8", 3),
		"kron-12":           sketchGraph(t, "kron-12", 3),
		"sparse/undirected": verify.Prepare(sparseComponents(false)),
		"sparse/directed":   verify.Prepare(sparseComponents(true)),
	}
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		for name, g := range graphs {
			t.Run(fmt.Sprintf("%s/procs=%d", name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				s := BuildSketch(g.Out, 8)
				if len(s.landmarks) != 8 || len(s.dist) != 8 {
					t.Fatalf("%d landmarks, %d distance vectors; want 8 of each", len(s.landmarks), len(s.dist))
				}
				for li, l := range s.landmarks {
					depth, dist := verify.BFS(g, l).Depth, verify.SSSP(g, l).Dist
					for v := range g.NumVertices {
						if h := s.hops[li].at(graph.VID(v)); int64(h) != depth[v] {
							t.Fatalf("landmark %d: hops to %d = %d, BFS depth %d", l, v, h, depth[v])
						}
						if d := s.dist[li].at(graph.VID(v)); math.Float64bits(d) != math.Float64bits(dist[v]) {
							t.Fatalf("landmark %d: distance to %d = %v, Dijkstra %v", l, v, d, dist[v])
						}
					}
				}
			})
		}
	}
}

// BuildSketch allocates its k vectors and, per worker, O(n) scratch
// that no pass grows: on a weighted kron-12 with 8 landmarks at one
// worker, at most the vectors' k·n·12 B plus 32 B a vertex (the heap's
// entries and positions and the BFS queue are 24) and 4 KiB for the
// headers.
func TestBuildSketchAllocBound(t *testing.T) {
	const k = 8
	c := sketchGraph(t, "kron-12", 3).Out
	n := c.NumVertices
	per := alloctest.FewestBytes(4, func() { BuildSketch(c, k) })
	vectors := uint64(k * n * 12)
	bound := vectors + uint64(32*n) + 4096
	t.Logf("a build allocates %d B: %d B of vectors, %d B besides (bound %d)", per, vectors, per-vectors, bound-vectors)
	if per > bound {
		t.Fatalf("a build allocates %d B, over the bound %d B (%d B of vectors + 32 B a vertex + 4 KiB)", per, bound, vectors)
	}
}

func TestSketchLandmarksDeterministic(t *testing.T) {
	c := sketchGraph(t, "kron-8", 3).Out
	a := BuildSketch(c, 4)
	b := BuildSketch(c, 4)
	if len(a.Landmarks()) != 4 {
		t.Fatalf("landmark count %d, want 4", len(a.Landmarks()))
	}
	for i, l := range a.Landmarks() {
		if b.Landmarks()[i] != l {
			t.Fatalf("landmark %d differs: %d vs %d", i, l, b.Landmarks()[i])
		}
	}
	// Landmarks are the top-degree vertices: every landmark's degree
	// is >= every non-landmark's degree.
	inSet := map[graph.VID]bool{}
	minLandmark := int64(math.MaxInt64)
	for _, l := range a.Landmarks() {
		inSet[l] = true
		if d := c.Degree(l); d < minLandmark {
			minLandmark = d
		}
	}
	for v := 0; v < c.NumVertices; v++ {
		if !inSet[graph.VID(v)] && c.Degree(graph.VID(v)) > minLandmark {
			t.Fatalf("vertex %d (degree %d) outranks a landmark (min degree %d)",
				v, c.Degree(graph.VID(v)), minLandmark)
		}
	}
}

// TestSketchIsUpperBound checks the triangle-inequality contract the
// degraded mode relies on: the sketch never underestimates, and is
// exact between a landmark and any vertex.
func TestSketchIsUpperBound(t *testing.T) {
	g := sketchGraph(t, "kron-8", 3)
	c := g.Out
	s := BuildSketch(c, 4)
	// True hop distances from vertex 0.
	truth := verify.BFS(g, 0).Depth
	for v := 0; v < c.NumVertices; v++ {
		est := s.EstimateHops(0, graph.VID(v))
		switch {
		case truth[v] < 0:
			// Unreachable in truth: any landmark path would contradict
			// connectivity, so the sketch must also say unreachable.
			if est >= 0 {
				t.Fatalf("v=%d unreachable but sketch says %v", v, est)
			}
		case est < 0:
			// Reachable but no landmark covers the pair: legal (sketch
			// is partial), though rare on a kron component.
		case est < float64(truth[v]):
			t.Fatalf("v=%d sketch %v under true distance %d", v, est, truth[v])
		}
	}
	// Exactness through a landmark: d(L, v) estimates as exactly the
	// BFS distance from L.
	l := s.Landmarks()[0]
	truthL := verify.BFS(g, l).Depth
	for v := 0; v < c.NumVertices; v++ {
		if truthL[v] < 0 {
			continue
		}
		if est := s.EstimateHops(l, graph.VID(v)); est != float64(truthL[v]) {
			t.Fatalf("landmark estimate d(%d,%d)=%v, true %d", l, v, est, truthL[v])
		}
	}
}

func TestSketchWeightedUpperBound(t *testing.T) {
	g := sketchGraph(t, "kron-8", 3)
	c := g.Out
	if c.Weights == nil {
		t.Fatal("kron should be weighted")
	}
	s := BuildSketch(c, 4)
	truth := verify.SSSP(g, 0).Dist
	for v := 0; v < c.NumVertices; v++ {
		est := s.EstimateDist(0, graph.VID(v))
		if math.IsInf(truth[v], 1) {
			if est >= 0 {
				t.Fatalf("v=%d unreachable but weighted sketch says %v", v, est)
			}
			continue
		}
		if est >= 0 && est < truth[v]-1e-12 {
			t.Fatalf("v=%d weighted sketch %v under true %v", v, est, truth[v])
		}
	}
}

func TestSketchIdentityAndEmpty(t *testing.T) {
	c := sketchGraph(t, "kron-8", 3).Out
	s := BuildSketch(c, 4)
	if got := s.EstimateHops(5, 5); got != 0 {
		t.Fatalf("self-distance %v, want 0", got)
	}
	empty := BuildSketch(c, 0)
	if got := empty.EstimateHops(0, 1); got != -1 {
		t.Fatalf("empty sketch estimate %v, want -1", got)
	}
	if got := empty.EstimateDist(0, 1); got != -1 {
		t.Fatalf("empty weighted sketch estimate %v, want -1", got)
	}
}
