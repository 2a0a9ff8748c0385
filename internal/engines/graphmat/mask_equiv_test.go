package graphmat

import (
	"math"
	"testing"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/kronecker"
)

// This file is the before/after wall for backing the SpMV frontier
// masks with parallel.Bitmap: the reference implementations below
// reproduce the kernels' previous []bool-mask semantics serially, and
// the bitmap-backed kernels must match them bit for bit on randomized
// graphs — the representation change must be unobservable.

// refMaskBFS is the pre-bitmap BFS: Boolean-semiring SpMV with
// byte-per-vertex masks, run serially.
func refMaskBFS(inst *Instance, root graph.VID) *engines.BFSResult {
	n := inst.n
	res := &engines.BFSResult{Root: root, Parent: make([]int64, n), Depth: make([]int64, n)}
	for i := range res.Parent {
		res.Parent[i] = engines.NoParent
		res.Depth[i] = -1
	}
	res.Parent[root] = int64(root)
	res.Depth[root] = 0
	active := make([]bool, n)
	nextActive := make([]bool, n)
	active[root] = true
	var examined int64
	for level := int64(0); ; level++ {
		found := 0
		for _, v := range inst.inRows {
			lo, hi := inst.in.Offsets[v], inst.in.Offsets[v+1]
			examined += hi - lo
			if res.Parent[v] != engines.NoParent {
				continue
			}
			var parent int64 = engines.NoParent
			for i := lo; i < hi; i++ {
				u := inst.in.Adj[i]
				if active[u] && (parent == engines.NoParent || int64(u) < parent) {
					parent = int64(u)
				}
			}
			if parent != engines.NoParent {
				res.Parent[v] = parent
				res.Depth[v] = level + 1
				nextActive[v] = true
				found++
			}
		}
		if found == 0 {
			break
		}
		active, nextActive = nextActive, active
		clear(nextActive)
	}
	res.EdgesExamined = examined
	return res
}

// refMaskSSSP is the pre-bitmap SSSP: synchronous min-plus SpMV with
// byte-per-vertex masks, run serially.
func refMaskSSSP(inst *Instance, root graph.VID) *engines.SSSPResult {
	n := inst.n
	res := &engines.SSSPResult{Root: root, Dist: make([]float64, n), Parent: make([]int64, n)}
	cur := make([]float32, n)
	nxt := make([]float32, n)
	inf := float32(math.Inf(1))
	for i := range cur {
		cur[i] = inf
		res.Parent[i] = engines.NoParent
	}
	cur[root] = 0
	res.Parent[root] = int64(root)
	active := make([]bool, n)
	nextActive := make([]bool, n)
	active[root] = true
	var relaxations int64
	for {
		copy(nxt, cur)
		changed := 0
		for _, v := range inst.inRows {
			lo, hi := inst.in.Offsets[v], inst.in.Offsets[v+1]
			best := cur[v]
			var bestParent int64 = -2
			for i := lo; i < hi; i++ {
				u := inst.in.Adj[i]
				if !active[u] {
					continue
				}
				relaxations++
				if nd := cur[u] + inst.in.Weights[i]; nd < best {
					best = nd
					bestParent = int64(u)
				}
			}
			if bestParent != -2 {
				nxt[v] = best
				res.Parent[v] = bestParent
				nextActive[v] = true
				changed++
			}
		}
		if changed == 0 {
			break
		}
		cur, nxt = nxt, cur
		active, nextActive = nextActive, active
		clear(nextActive)
	}
	for v := 0; v < n; v++ {
		res.Dist[v] = float64(cur[v])
	}
	res.Relaxations = relaxations
	return res
}

func TestBitmapMaskBFSEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 7, 23, 99} {
		el := kronecker.Generate(kronecker.Params{Scale: 8, Seed: seed})
		inst := loadBuilt(t, el)
		want := refMaskBFS(inst, 2)
		got, err := inst.BFS(2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.EdgesExamined != want.EdgesExamined {
			t.Errorf("seed=%d: edges examined %d, []bool reference %d", seed, got.EdgesExamined, want.EdgesExamined)
		}
		for v := range want.Parent {
			if got.Parent[v] != want.Parent[v] || got.Depth[v] != want.Depth[v] {
				t.Fatalf("seed=%d: vertex %d: parent/depth (%d,%d), []bool reference (%d,%d)",
					seed, v, got.Parent[v], got.Depth[v], want.Parent[v], want.Depth[v])
			}
		}
	}
}

func TestBitmapMaskSSSPEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 7, 23, 99} {
		el := kronecker.Generate(kronecker.Params{Scale: 8, Seed: seed})
		inst := loadBuilt(t, el)
		want := refMaskSSSP(inst, 2)
		got, err := inst.SSSP(2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Relaxations != want.Relaxations {
			t.Errorf("seed=%d: relaxations %d, []bool reference %d", seed, got.Relaxations, want.Relaxations)
		}
		for v := range want.Dist {
			if math.Float64bits(got.Dist[v]) != math.Float64bits(want.Dist[v]) || got.Parent[v] != want.Parent[v] {
				t.Fatalf("seed=%d: vertex %d: dist/parent (%v,%d), []bool reference (%v,%d)",
					seed, v, got.Dist[v], got.Parent[v], want.Dist[v], want.Parent[v])
			}
		}
	}
}
