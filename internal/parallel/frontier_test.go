package parallel

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// chunkItems derives a pseudorandom item set for chunk c — a pure
// function of the chunk index, mimicking a deterministic frontier
// producer (write-min claims make per-chunk sets schedule-independent).
func chunkItems(c int) []uint32 {
	r := rand.New(rand.NewSource(int64(c)*2654435761 + 1))
	n := r.Intn(40)
	items := make([]uint32, n)
	for i := range items {
		items[i] = uint32(c*1000 + r.Intn(1000))
	}
	return items
}

// TestChunkQueueMatchesSortedQueue is the frontier-equivalence wall:
// on random per-chunk item sets pushed concurrently under every
// scheduling policy and several worker counts, the ChunkQueue's
// chunk-ordered concatenation must (a) be identical across all
// schedules — the sort-free canonical form — and (b) hold exactly the
// same multiset the atomic Queue collected, i.e. dropping the sort
// loses nothing but the O(n log n).
func TestChunkQueueMatchesSortedQueue(t *testing.T) {
	p := NewPool(8)
	const n, grain = 3000, 16
	nchunks := NumChunks(n, grain)

	var want []uint32 // chunk-ordered reference, built serially
	for c := 0; c < nchunks; c++ {
		want = append(want, chunkItems(c)...)
	}
	wantSorted := slices.Clone(want)
	slices.Sort(wantSorted)

	cq := NewChunkQueue[uint32]()
	for _, sched := range []Sched{Static, Dynamic, Steal, NUMA} {
		for _, workers := range []int{1, 2, 4, 9} {
			cq.Reset(nchunks)
			q := NewQueue[uint32](len(want))
			For(p, workers, n, grain, sched, func(lo, hi, chunk, worker int) {
				items := chunkItems(chunk)
				q.PushBatch(items)
				cq.Put(chunk, items)
			})
			if got := cq.AppendTo(nil); !slices.Equal(got, want) {
				t.Fatalf("sched=%v workers=%d: chunk-ordered concat differs from serial reference", sched, workers)
			}
			if got := slices.Sorted(slices.Values(q.Slice())); !slices.Equal(got, wantSorted) {
				t.Fatalf("sched=%v workers=%d: Queue multiset differs from ChunkQueue multiset", sched, workers)
			}
			if cq.Len() != len(want) {
				t.Fatalf("Len = %d, want %d", cq.Len(), len(want))
			}
		}
	}
}

// TestChunkQueueDrainFiltersAndMaps exercises the claim-drain idiom:
// tentative claims are dropped unless the final write-min value
// matches, and the kept order is chunk order.
func TestChunkQueueDrainFiltersAndMaps(t *testing.T) {
	q := NewChunkQueue[Claim]()
	q.Reset(2)
	q.Put(0, []Claim{{V: 7, By: 3}, {V: 9, By: 1}})
	q.Put(1, []Claim{{V: 7, By: 2}, {V: 5, By: 4}})
	parent := map[uint32]int64{7: 2, 9: 1, 5: 4}
	got := DrainChunkQueue(q, nil, func(c Claim) (uint32, bool) {
		return c.V, parent[c.V] == int64(c.By)
	})
	// Claim {7,3} lost the min race and must be dropped; the rest keep
	// chunk-then-push order.
	want := []uint32{9, 7, 5}
	if !slices.Equal(got, want) {
		t.Fatalf("drain = %v, want %v", got, want)
	}
}

func TestChunkQueueResetReusesCapacity(t *testing.T) {
	q := NewChunkQueue[int]()
	q.Reset(4)
	q.Put(2, []int{1, 2})
	q.Reset(3)
	if q.Len() != 0 {
		t.Fatalf("reset kept %d items", q.Len())
	}
	q.Put(0, []int{9})
	if got := q.AppendTo(nil); !slices.Equal(got, []int{9}) {
		t.Fatalf("slice after reset = %v", got)
	}
}

func TestQueueOverflowPanicsNameSizes(t *testing.T) {
	check := func(name string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: overflow did not panic", name)
			}
			msg, ok := r.(string)
			if !ok || !strings.Contains(msg, "capacity 2") {
				t.Fatalf("%s: panic %v does not name the queue capacity", name, r)
			}
		}()
		f()
	}
	check("Push", func() {
		q := NewQueue[int](2)
		q.Push(1)
		q.Push(2)
		q.Push(3)
	})
	check("PushBatch", func() {
		q := NewQueue[int](2)
		q.PushBatch([]int{1, 2, 3})
	})
}

func TestLowerMinInt64(t *testing.T) {
	const empty = int64(-1)
	p := NewPool(8)
	slot := empty
	lowerings := NewCounter(8)
	For(p, 8, 1000, 1, Dynamic, func(lo, hi, chunk, worker int) {
		if LowerMinInt64(&slot, int64(lo+5), empty) {
			lowerings.Add(worker, 1)
		}
	})
	if slot != 5 {
		t.Errorf("min = %d, want 5", slot)
	}
	// At least the global-minimum writer must observe a lowering; more
	// may (that is the point of the filtered drain).
	if got := lowerings.Sum(); got < 1 || got > 1000 {
		t.Errorf("lowerings = %d, want within [1, 1000]", got)
	}
	if LowerMinInt64(&slot, 9, empty) {
		t.Error("raising the value reported a lowering")
	}
}

func TestScanInt64MatchesSerial(t *testing.T) {
	p := NewPool(8)
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 17, scanSerialCutoff - 1, scanSerialCutoff * 3, 100003} {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(r.Intn(9))
		}
		want := make([]int64, n)
		var run int64
		for i := range xs {
			want[i] = run
			run += xs[i]
		}
		for _, workers := range []int{1, 2, 4, 7} {
			got := slices.Clone(xs)
			total := ScanInt64(p, workers, got)
			if total != run {
				t.Fatalf("n=%d workers=%d: total %d, want %d", n, workers, total, run)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d workers=%d: scan differs from serial", n, workers)
			}
		}
	}
}

// TestBitmapRace hammers Set/Test from all workers under every policy
// (the -race wall for the bitmap frontier) and then checks the
// collected membership.
func TestBitmapRace(t *testing.T) {
	p := NewPool(8)
	const n = 10000
	for _, sched := range []Sched{Static, Dynamic, Steal, NUMA} {
		b := NewBitmap(n)
		For(p, 8, n, 64, sched, func(lo, hi, chunk, worker int) {
			for i := lo; i < hi; i++ {
				if i%3 == 0 {
					b.Set(i)
				}
				// Cross-chunk tests race with sets on purpose.
				_ = b.Test((i * 7) % n)
			}
			// Concurrent re-set of a shared vertex: idempotent.
			b.Set(0)
		})
		for i := 0; i < n; i++ {
			want := i%3 == 0 || i == 0
			if b.Test(i) != want {
				t.Fatalf("sched=%v: bit %d = %v, want %v", sched, i, b.Test(i), want)
			}
		}
		if got, want := b.Count(), n/3+1; got != want {
			t.Fatalf("sched=%v: count %d, want %d", sched, got, want)
		}
	}
}

func TestBitmapToSliceAscending(t *testing.T) {
	p := NewPool(8)
	const n = 70000 // several ToSlice chunks
	b := NewBitmap(n)
	var want []uint32
	r := rand.New(rand.NewSource(5))
	for i := 0; i < n; i++ {
		if r.Intn(4) == 0 {
			b.Set(i)
			want = append(want, uint32(i))
		}
	}
	for _, workers := range []int{1, 2, 4} {
		got := b.ToSlice(NewPool(8), workers, nil)
		if !slices.Equal(got, want) {
			t.Fatalf("workers=%d: ToSlice differs from ascending reference (%d vs %d items)",
				workers, len(got), len(want))
		}
	}
	// Appending to a non-empty dst preserves the prefix.
	pre := []uint32{42}
	got := b.ToSlice(p, 4, pre)
	if got[0] != 42 || !slices.Equal(got[1:], want) {
		t.Fatal("ToSlice clobbered the dst prefix")
	}
}

func TestBitmapClearRange(t *testing.T) {
	const n = 300
	b := NewBitmap(n)
	for i := 0; i < n; i++ {
		b.Set(i)
	}
	b.ClearRange(10, 75)   // crosses a word boundary with partial ends
	b.ClearRange(130, 140) // within one word
	b.ClearRange(192, 300) // aligned start, slice end
	for i := 0; i < n; i++ {
		want := !(i >= 10 && i < 75 || i >= 130 && i < 140 || i >= 192)
		if b.Test(i) != want {
			t.Fatalf("bit %d = %v, want %v", i, b.Test(i), want)
		}
	}
	b.Clear()
	if b.Count() != 0 {
		t.Fatal("Clear left bits set")
	}
}

// Slab hands each chunk a copy of exactly its own items, which a later
// chunk regrowing the same worker's scratch leaves intact, clamps the
// handed-out capacity, rewinds in place, and once warm allocates nothing
// whichever worker runs which chunk: a region whose chunks all ran on
// worker 0 sizes the slab for the same chunks run on worker 1, or split
// between both.
func TestSlabKeepIndependentOfShares(t *testing.T) {
	var s Slab[int]
	sizes := []int{3, 4000, 0, 2}
	out := make([][]int, len(sizes))
	region := func(workerOf func(chunk int) int) [][]int {
		s.Reset(2)
		for c, n := range sizes {
			w := workerOf(c)
			buf := s.Take(w)
			for i := 0; i < n; i++ {
				buf = append(buf, c*10000+i)
			}
			out[c] = s.Keep(w, buf)
		}
		return out
	}
	check := func(out [][]int) {
		t.Helper()
		for c, items := range out {
			if len(items) != sizes[c] || cap(items) != len(items) {
				t.Fatalf("chunk %d: len %d cap %d, want %d items clamped", c, len(items), cap(items), sizes[c])
			}
			for i, it := range items {
				if it != c*10000+i {
					t.Fatalf("chunk %d item %d = %d: chunks see each other's items", c, i, it)
				}
			}
		}
	}
	// Two regions with every chunk on worker 0: the first spills, and
	// chunk 1 regrows the scratch chunk 0's copy was taken from; the
	// second runs in the slab that Reset sized.
	check(region(func(int) int { return 0 }))
	check(region(func(int) int { return 0 }))
	shares := []func(int) int{
		func(int) int { return 1 },
		func(c int) int { return c % 2 },
		func(int) int { return 0 },
	}
	held := s.Cap()
	for i, workerOf := range shares {
		// The first region of each split, not a warmed one: a buffer per
		// worker holding its share would grow worker 1's here. Nothing
		// may grow, and every chunk's copy must lie in the slab, not in
		// a spilled array.
		split := region(workerOf)
		check(split)
		if got := s.Cap(); got != held {
			t.Fatalf("split %d: the slab grew from %d to %d items", i, held, got)
		}
		off := 0
		for c, items := range split {
			if len(items) > 0 && &items[0] != &s.items[off] {
				t.Fatalf("split %d: chunk %d was copied outside the slab", i, c)
			}
			off += len(items)
		}
	}
	_ = append(out[0], -1) // must reallocate, not overwrite chunk 1's items
	if out[1][0] != 10000 {
		t.Fatal("append to a chunk's slice reached the next chunk's items")
	}
	s.Reset(2)
	if s.Cap() != held || len(s.Take(0)) != 0 || len(s.Take(1)) != 0 {
		t.Fatalf("Reset did not rewind in place: cap %d -> %d", held, s.Cap())
	}
	if allocs := testing.AllocsPerRun(10, func() { region(shares[1]) }); allocs != 0 {
		t.Fatalf("warm slab region allocated %v times", allocs)
	}
	// The largest region's items, and per worker the largest chunk's,
	// at most doubled where a chunk regrew the scratch in place.
	if got := s.Cap(); got < 4005+2*4000 || got > 4005+2*2*4000 {
		t.Fatalf("Cap = %d, want 4005 items and 4000 to 8000 per worker", got)
	}
}

// Many regions through one Slab under every policy, with more workers
// than idle pool slots: each chunk must read back exactly what it
// appended while other workers Keep beside it, in the slab or, in a
// region larger than any before, spilled. Under -race this is the
// Slab's memory-model wall.
func TestSlabConcurrentRegions(t *testing.T) {
	p := NewPool(4)
	var s Slab[uint64]
	cq := NewChunkQueue[uint64]()
	for round, sched := range []Sched{Static, Dynamic, Steal, NUMA, Dynamic, Steal} {
		workers, n, grain := 3+2*round, 2000*(1+round%3), 7
		cq.Reset(NumChunks(n, grain))
		s.Reset(workers)
		For(p, workers, n, grain, sched, func(lo, hi, chunk, worker int) {
			buf := s.Take(worker)
			for i := lo; i < hi; i++ {
				if i%3 != 0 {
					buf = append(buf, uint64(round)<<32|uint64(i))
				}
			}
			cq.Put(chunk, s.Keep(worker, buf))
		})
		next := 0
		for _, b := range cq.Chunks() {
			for _, it := range b {
				for next%3 == 0 {
					next++
				}
				if it != uint64(round)<<32|uint64(next) {
					t.Fatalf("round %d sched %v: item %#x where %d was appended", round, sched, it, next)
				}
				next++
			}
		}
		if next < n-1 {
			t.Fatalf("round %d sched %v: drain stopped at %d of %d", round, sched, next, n)
		}
	}
}
