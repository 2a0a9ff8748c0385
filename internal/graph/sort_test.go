package graph

import (
	"fmt"
	"math"
	"slices"
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

// sortPairsPacked is the comparison row sort the radix sorter replaced:
// one slices.Sort of neighbor<<32 | weight keys under the same
// order-preserving weight map. It is the oracle for sortRow's order.
func sortPairsPacked(adj []VID, w []float32, keys []uint64) {
	for i, u := range adj {
		b := math.Float32bits(w[i])
		if b>>31 != 0 {
			b = ^b
		} else {
			b |= 1 << 31
		}
		keys[i] = uint64(u)<<32 | uint64(b)
	}
	slices.Sort(keys)
	for i, k := range keys {
		b := uint32(k)
		if b>>31 != 0 {
			b &^= 1 << 31
		} else {
			b = ^b
		}
		adj[i], w[i] = VID(k>>32), math.Float32frombits(b)
	}
}

// dedupCSR is the serial pass the builder ran after sorting before the
// dedup moved into the sort: it drops repeated neighbors from a sorted
// CSR in place, keeping the least weight (by <) of each run. It is the
// oracle for sortRows' dedup and compact.
func dedupCSR(c *CSR) *CSR {
	var out int64
	lo := c.Offsets[0]
	for v := 0; v < c.NumVertices; v++ {
		hi := c.Offsets[v+1]
		rowStart := out
		for i := lo; i < hi; i++ {
			u := c.Adj[i]
			if out > rowStart && u == c.Adj[out-1] {
				if c.Weights != nil && c.Weights[i] < c.Weights[out-1] {
					c.Weights[out-1] = c.Weights[i]
				}
				continue
			}
			c.Adj[out] = u
			if c.Weights != nil {
				c.Weights[out] = c.Weights[i]
			}
			out++
		}
		lo = hi
		c.Offsets[v+1] = out
	}
	c.Adj = c.Adj[:out]
	if c.Weights != nil {
		c.Weights = c.Weights[:out]
	}
	return c
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
			got.sortRows(workers, nil)
			for i := range want.Adj {
				if got.Adj[i] != want.Adj[i] || got.Weights[i] != want.Weights[i] {
					t.Fatalf("seed %d workers %d: entry %d = (%d, %g), oracle has (%d, %g)",
						seed, workers, i, got.Adj[i], got.Weights[i], want.Adj[i], want.Weights[i])
				}
			}
		}
	}
}

// The fused dedup must leave exactly what the packed sort followed by
// the old serial dedup pass leaves — offsets, neighbors and weight bits
// — at every worker count.
func TestSortRowsDedupMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		base := sortWallCSR(seed)
		want := cloneCSR(base)
		for v := 0; v < want.NumVertices; v++ {
			lo, hi := want.Offsets[v], want.Offsets[v+1]
			sortPairsPacked(want.Adj[lo:hi], want.Weights[lo:hi], make([]uint64, hi-lo))
		}
		want = dedupCSR(want)
		for _, workers := range []int{1, 2, 4, 7} {
			got := cloneCSR(base)
			deg := make([]int32, got.NumVertices)
			got.sortRows(workers, deg)
			got.compact(deg)
			sameBits(t, fmt.Sprintf("seed %d workers %d", seed, workers), want, got)
		}
	}
}

// sameBits fails unless got and want agree on offsets, neighbors and
// every weight's bits.
func sameBits(t *testing.T, label string, want, got *CSR) {
	t.Helper()
	if !slices.Equal(got.Offsets, want.Offsets) {
		t.Fatalf("%s: offsets differ from the oracle's", label)
	}
	if !slices.Equal(got.Adj, want.Adj) {
		t.Fatalf("%s: adjacency differs from the oracle's", label)
	}
	if len(got.Weights) != len(want.Weights) || (got.Weights == nil) != (want.Weights == nil) {
		t.Fatalf("%s: %d weights, oracle has %d", label, len(got.Weights), len(want.Weights))
	}
	for i := range want.Weights {
		if math.Float32bits(got.Weights[i]) != math.Float32bits(want.Weights[i]) {
			t.Fatalf("%s: weight %d has bits %#x, oracle %#x", label, i, math.Float32bits(got.Weights[i]), math.Float32bits(want.Weights[i]))
		}
	}
}

// The packed keys must round-trip every weight bit pattern (NaN
// payloads and the sign of zero included) and order whatever < orders,
// in the oracle and in both of sortRow's paths (insertion and radix).
func TestSortPairsPackedKeepsBits(t *testing.T) {
	base := append([]float32{float32(math.NaN()), math.Float32frombits(0xffc00001)}, hostileWeights...)
	for _, rows := range []int{1, radixCutoff/len(base) + 1} {
		var w []float32
		for range rows {
			w = append(w, base...)
		}
		for _, sorter := range []func(adj []VID, w []float32, keys []uint64){
			sortPairsPacked,
			func(adj []VID, w []float32, keys []uint64) { sortRow(adj, w, keys, 1, false) },
		} {
			w := slices.Clone(w)
			adj := make([]VID, len(w))
			before := map[uint32]int{}
			for _, x := range w {
				before[math.Float32bits(x)]++
			}
			sorter(adj, w, make([]uint64, len(w)))
			for i, x := range w {
				before[math.Float32bits(x)]--
				if i > 0 && x < w[i-1] {
					t.Errorf("%d weights: %g, %g out of order", len(w), w[i-1], x)
				}
			}
			for bits, left := range before {
				if left != 0 {
					t.Errorf("%d weights: bits %#x: count off by %d after the sort", len(w), bits, left)
				}
			}
		}
	}
}

// FuzzSortRow holds sortRow to the packed comparison sort and, with
// dedup, to that sort followed by the old serial dedup pass, bit for
// bit: rows of 0-300 entries on both sides of radixCutoff, neighbor IDs
// that need 1-4 radix digits, duplicate neighbors with distinct weights,
// and weights drawn from raw bit patterns (NaNs, both zeros, negatives).
func FuzzSortRow(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint8(0), uint8(0))
	f.Add(uint64(2), uint16(1), uint8(3), uint8(0x81))
	f.Add(uint64(3), uint16(radixCutoff-1), uint8(0), uint8(0x83))
	f.Add(uint64(4), uint16(radixCutoff), uint8(1), uint8(0x84))
	f.Add(uint64(5), uint16(radixCutoff+1), uint8(2), uint8(0x02))
	f.Add(uint64(6), uint16(300), uint8(3), uint8(0x9f))
	f.Add(uint64(7), uint16(300), uint8(1), uint8(0x01))
	f.Fuzz(func(t *testing.T, seed uint64, length uint16, digitSeed, shape uint8) {
		n := int(length) % 301
		digits := int(digitSeed)%4 + 1
		mask := uint64(1)<<(8*digits) - 1
		weighted := shape&1 == 0
		r := xrand.New(seed)
		// With shape's top bit set the neighbors come from a pool of
		// 1-32 IDs, so runs of duplicates abound.
		var pool []VID
		if shape&0x80 != 0 {
			for range int(shape>>2)%32 + 1 {
				pool = append(pool, VID(r.Uint64()&mask))
			}
		}
		adj := make([]VID, n)
		var w []float32
		if weighted {
			w = make([]float32, n)
		}
		for i := range adj {
			if pool != nil {
				adj[i] = pool[r.Intn(len(pool))]
			} else {
				adj[i] = VID(r.Uint64() & mask)
			}
			if weighted {
				switch r.Intn(3) {
				case 0:
					w[i] = math.Float32frombits(r.Uint32())
				case 1:
					w[i] = hostileWeights[r.Intn(len(hostileWeights))]
				default:
					w[i] = []float32{float32(math.NaN()), math.Float32frombits(0xffc00001), 0.25}[r.Intn(3)]
				}
			}
		}

		want := &CSR{NumVertices: 1, Offsets: []int64{0, int64(n)}, Adj: slices.Clone(adj), Weights: slices.Clone(w)}
		if weighted {
			sortPairsPacked(want.Adj, want.Weights, make([]uint64, n))
		} else {
			slices.Sort(want.Adj)
		}
		for _, dedup := range []bool{false, true} {
			if dedup {
				want = dedupCSR(want)
			}
			got := &CSR{NumVertices: 1, Adj: slices.Clone(adj), Weights: slices.Clone(w)}
			kept := sortRow(got.Adj, got.Weights, make([]uint64, n), digits, dedup)
			got.Offsets = []int64{0, int64(kept)}
			got.Adj = got.Adj[:kept]
			if weighted {
				got.Weights = got.Weights[:kept]
			}
			sameBits(t, fmt.Sprintf("%d entries, %d digits, dedup %v", n, digits, dedup), want, got)
		}
	})
}

// Sorting is in place: a sorted build allocates what the unsorted one
// does plus the bookkeeping of one parallel region and, when sortKeys
// holds no buffer that long (under -race sync.Pool drops Puts at
// random), one key buffer of exactly workers × the longest row. Those
// two are the only inexact terms: the buffer is all or nothing, and in
// the region a helper that has not parked since the last one is
// replaced by a new pool worker, at most one per helper.
func TestBuildAllocBudget(t *testing.T) {
	const regionBytes, regionAllocs = 1024, 12
	el := randomEdgeList(11, 2048, 1<<16, true)
	for _, workers := range []int{1, 2, 4} {
		opt := BuildOptions{Workers: workers, Symmetrize: true}
		var longest int64
		plain := BuildCSR(el, opt)
		for v := 0; v < plain.NumVertices; v++ {
			longest = max(longest, plain.Degree(VID(v)))
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
		keyBytes := float64(workers) * float64(8*longest)
		budget := keyBytes + float64(workers*regionBytes)
		t.Logf("workers %d: a sorted build allocates %.0f B and %.0f objects more than unsorted (budget %.0f B)", workers, sortBytes-plainBytes, sortAllocs-plainAllocs, budget)
		if extra := sortBytes - plainBytes; extra > budget {
			t.Errorf("workers %d: sorted build allocates %.0f B more than unsorted, budget %.0f (longest row %d)", workers, extra, budget, longest)
		}
		if extra := sortAllocs - plainAllocs; extra > float64(1+workers*regionAllocs) {
			t.Errorf("workers %d: sorted build makes %.0f more allocations than unsorted, budget %d", workers, extra, 1+workers*regionAllocs)
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
