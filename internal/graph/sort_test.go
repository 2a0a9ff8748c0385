package graph

import (
	"math"
	"sort"
	"testing"

	"github.com/hpcl-repro/epg/internal/alloctest"
	"github.com/hpcl-repro/epg/internal/xrand"
)

// referenceSortAdjacency is the pre-refactor sort.Slice implementation,
// kept as the oracle for the concrete-sorter rewrite.
func referenceSortAdjacency(c *CSR) {
	for v := 0; v < c.NumVertices; v++ {
		lo, hi := c.Offsets[v], c.Offsets[v+1]
		if hi-lo < 2 {
			continue
		}
		adj := c.Adj[lo:hi]
		if c.Weights == nil {
			sort.Slice(adj, func(i, j int) bool { return adj[i] < adj[j] })
			continue
		}
		w := c.Weights[lo:hi]
		idx := make([]int, len(adj))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(i, j int) bool { return adj[idx[i]] < adj[idx[j]] })
		na := make([]VID, len(adj))
		nw := make([]float32, len(w))
		for i, k := range idx {
			na[i], nw[i] = adj[k], w[k]
		}
		copy(adj, na)
		copy(w, nw)
	}
}

// adjWeightSorter is the serial sort.Sort pair sorter SortAdjacency
// used before it went parallel and monomorphic, kept as the oracle for
// the (neighbor, weight) order.
type adjWeightSorter struct {
	adj []VID
	w   []float32
}

func (s *adjWeightSorter) Len() int { return len(s.adj) }
func (s *adjWeightSorter) Less(i, j int) bool {
	if s.adj[i] != s.adj[j] {
		return s.adj[i] < s.adj[j]
	}
	return s.w[i] < s.w[j]
}
func (s *adjWeightSorter) Swap(i, j int) {
	s.adj[i], s.adj[j] = s.adj[j], s.adj[i]
	s.w[i], s.w[j] = s.w[j], s.w[i]
}

func oracleSortAdjacency(c *CSR) {
	for v := 0; v < c.NumVertices; v++ {
		lo, hi := c.Offsets[v], c.Offsets[v+1]
		sort.Sort(&adjWeightSorter{adj: c.Adj[lo:hi], w: c.Weights[lo:hi]})
	}
}

func cloneCSR(c *CSR) *CSR {
	out := &CSR{
		NumVertices: c.NumVertices,
		Offsets:     append([]int64(nil), c.Offsets...),
		Adj:         append([]VID(nil), c.Adj...),
	}
	if c.Weights != nil {
		out.Weights = append([]float32(nil), c.Weights...)
	}
	return out
}

func TestSortAdjacencyMatchesReferenceUnweighted(t *testing.T) {
	// Without weights the sorted layout is fully determined, so the
	// rewrite must reproduce the old implementation byte for byte.
	for seed := uint64(1); seed <= 5; seed++ {
		el := randomEdgeList(seed, 128, 2000, false)
		a := BuildCSR(el, BuildOptions{Symmetrize: true})
		b := cloneCSR(a)
		referenceSortAdjacency(a)
		b.SortAdjacency()
		for i := range a.Adj {
			if a.Adj[i] != b.Adj[i] {
				t.Fatalf("seed %d: adj[%d] = %d, reference has %d", seed, i, b.Adj[i], a.Adj[i])
			}
		}
	}
}

func TestSortAdjacencyWeightedInvariants(t *testing.T) {
	// With weights the neighbor order must match the reference exactly;
	// duplicate-neighbor weight order is tie-broken by weight (the old
	// closure sort left it unspecified), so compare the per-vertex
	// (neighbor, weight) pair multiset instead of raw weight layout,
	// and pin that the downstream min-weight dedup is unaffected.
	for seed := uint64(1); seed <= 5; seed++ {
		el := randomEdgeList(seed, 64, 1500, true)
		a := BuildCSR(el, BuildOptions{Symmetrize: true})
		b := cloneCSR(a)
		referenceSortAdjacency(a)
		b.SortAdjacency()
		for i := range a.Adj {
			if a.Adj[i] != b.Adj[i] {
				t.Fatalf("seed %d: adj[%d] = %d, reference has %d", seed, i, b.Adj[i], a.Adj[i])
			}
		}
		for v := 0; v < a.NumVertices; v++ {
			lo, hi := a.Offsets[v], a.Offsets[v+1]
			wa := append([]float32(nil), a.Weights[lo:hi]...)
			wb := append([]float32(nil), b.Weights[lo:hi]...)
			sa := adjWeightSorter{adj: append([]VID(nil), a.Adj[lo:hi]...), w: wa}
			sb := adjWeightSorter{adj: append([]VID(nil), b.Adj[lo:hi]...), w: wb}
			sort.Sort(&sa)
			sort.Sort(&sb)
			for i := range wa {
				if wa[i] != wb[i] {
					t.Fatalf("seed %d vertex %d: weight multiset differs", seed, v)
				}
			}
		}
		da, db := dedupCSR(a), dedupCSR(b)
		for i := range da.Adj {
			if da.Adj[i] != db.Adj[i] || da.Weights[i] != db.Weights[i] {
				t.Fatalf("seed %d: dedup output differs at %d", seed, i)
			}
		}
	}
}

// hostileWeights are the floats the order-preserving key map has to
// get right: both signs, both zeros, subnormals, the extremes and the
// infinities. NaN is left out: < does not order it.
var hostileWeights = []float32{
	0, float32(math.Copysign(0, -1)), 1, -1, 0.5, -0.5, 1e-7, -1e-7,
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.MaxFloat32, -math.MaxFloat32,
	float32(math.Inf(1)), float32(math.Inf(-1)),
}

// sortWallCSR is an unsorted weighted multigraph with few distinct
// neighbors per row (so duplicates abound), weights drawn from a small
// tied set, the hostile set and distinct randoms, short rows, and a hub
// row far longer than any first key buffer.
func sortWallCSR(seed uint64) *CSR {
	const n, hub = 300, 6000
	r := xrand.New(seed)
	el := &EdgeList{NumVertices: n, Weighted: true}
	weight := func() float32 {
		switch r.Intn(3) {
		case 0:
			return float32(r.Intn(4)) - 1.5
		case 1:
			return hostileWeights[r.Intn(len(hostileWeights))]
		}
		return r.Float32()*200 - 100
	}
	for i := 0; i < hub; i++ {
		el.Edges = append(el.Edges, Edge{Src: 0, Dst: VID(r.Intn(n)), W: weight()})
	}
	for v := 1; v < n; v++ {
		for d := r.Intn(48); d > 0; d-- {
			el.Edges = append(el.Edges, Edge{Src: VID(v), Dst: VID(r.Intn(16)), W: weight()})
		}
	}
	return BuildCSR(el, BuildOptions{Workers: 1})
}

// The parallel sorter must lay every row out exactly as the old serial
// pair sorter did, at every worker count: rows are independent and the
// (neighbor, weight) order leaves only indistinguishable pairs free.
func TestSortAdjacencyMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		base := sortWallCSR(seed)
		if len(base.Adj) < buildSerialCutoff {
			t.Fatalf("wall graph has %d entries, below the serial cutoff", len(base.Adj))
		}
		want := cloneCSR(base)
		oracleSortAdjacency(want)
		for _, workers := range []int{1, 2, 4, 7} {
			got := cloneCSR(base)
			got.sortAdjacency(workers)
			for i := range want.Adj {
				if got.Adj[i] != want.Adj[i] || got.Weights[i] != want.Weights[i] {
					t.Fatalf("seed %d workers %d: entry %d = (%d, %g), oracle has (%d, %g)",
						seed, workers, i, got.Adj[i], got.Weights[i], want.Adj[i], want.Weights[i])
				}
			}
		}
	}
}

// The packed keys must round-trip every weight bit pattern (NaN
// payloads and the sign of zero included) and order whatever < orders.
func TestSortPairsPackedKeepsBits(t *testing.T) {
	w := append([]float32{float32(math.NaN()), math.Float32frombits(0xffc00001)}, hostileWeights...)
	adj := make([]VID, len(w))
	before := map[uint32]int{}
	for _, x := range w {
		before[math.Float32bits(x)]++
	}
	sortPairsPacked(adj, w, make([]uint64, len(w)))
	for i, x := range w {
		before[math.Float32bits(x)]--
		if i > 0 && x < w[i-1] {
			t.Errorf("weights %g, %g out of order", w[i-1], x)
		}
	}
	for bits, left := range before {
		if left != 0 {
			t.Errorf("weight bits %#x: count off by %d after the sort", bits, left)
		}
	}
}

// Sorting is in place: a sorted build may allocate what the unsorted
// one does plus, per worker, the bookkeeping of one parallel region and
// a key buffer that doubles up to (at most twice) the longest row.
func TestBuildAllocBudget(t *testing.T) {
	el := randomEdgeList(11, 2048, 1<<16, true)
	for _, workers := range []int{1, 2, 4} {
		opt := BuildOptions{Workers: workers, Symmetrize: true}
		var maxDeg int64
		plain := BuildCSR(el, opt)
		for v := 0; v < plain.NumVertices; v++ {
			maxDeg = max(maxDeg, plain.Degree(VID(v)))
		}
		// One ReadMemStats pair bills whatever another goroutine (the race
		// runtime, the pool of a previous test) allocated meanwhile; the
		// least of several batches at one P does not.
		measure := func(opt BuildOptions) (bytes, allocs float64) {
			allocs = testing.AllocsPerRun(5, func() { BuildCSR(el, opt) })
			return float64(alloctest.BytesPerRun(5, func() { BuildCSR(el, opt) })), allocs
		}
		plainBytes, plainAllocs := measure(opt)
		opt.Sort = true
		sortBytes, sortAllocs := measure(opt)
		keyBytes := float64(workers) * float64(4*8*maxDeg)
		if extra := sortBytes - plainBytes; extra > keyBytes+float64(workers)*1024 {
			t.Errorf("workers %d: sorted build allocates %.0f B more than unsorted, budget %.0f (max degree %d)", workers, extra, keyBytes, maxDeg)
		}
		if extra := sortAllocs - plainAllocs; extra > float64(workers)*(math.Log2(float64(maxDeg))+8) {
			t.Errorf("workers %d: sorted build makes %.0f more allocations than unsorted", workers, extra)
		}
	}
}

func sortBenchCSR(weighted bool) *CSR {
	el := randomEdgeList(99, 4096, 1<<17, weighted)
	return BuildCSR(el, BuildOptions{Symmetrize: true})
}

func BenchmarkSortAdjacencyUnweighted(b *testing.B) {
	base := sortBenchCSR(false)
	scratch := cloneCSR(base)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch.Adj, base.Adj)
		scratch.SortAdjacency()
	}
}

func BenchmarkSortAdjacencyWeighted(b *testing.B) {
	base := sortBenchCSR(true)
	scratch := cloneCSR(base)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch.Adj, base.Adj)
		copy(scratch.Weights, base.Weights)
		scratch.SortAdjacency()
	}
}

func BenchmarkSortAdjacencyWeightedReference(b *testing.B) {
	base := sortBenchCSR(true)
	scratch := cloneCSR(base)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch.Adj, base.Adj)
		copy(scratch.Weights, base.Weights)
		referenceSortAdjacency(scratch)
	}
}
