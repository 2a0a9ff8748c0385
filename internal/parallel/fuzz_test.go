// Fuzz targets for the schedule-sensitive primitives PR 3 introduced:
// ChunkQueue, Bitmap, and ScanInt64. Each target checks a primitive
// against a trivially-correct oracle (serial prefix sum, a map-based
// set, a serially built concatenation) on adversarial inputs, under
// every scheduling policy and several worker counts. The seed corpus
// runs in plain `go test` (and therefore under `make race`); CI also
// runs each target with a bounded -fuzztime on a GOMAXPROCS matrix.
package parallel

import (
	"encoding/binary"
	"slices"
	"testing"

	"github.com/hpcl-repro/epg/internal/xrand"
)

// fuzzSchedules maps a fuzz byte onto a policy; NUMA appears twice so
// a random byte exercises the two-level path as often as the rest.
var fuzzSchedules = []Sched{Static, Dynamic, Steal, NUMA, NUMA}

// FuzzScanInt64 asserts ScanInt64 ≡ the serial exclusive prefix sum.
// data supplies a base pattern of int64 values; repeats tiles it past
// the serial cutoff so the parallel two-pass path (per-worker block
// sums combined in block order) is reachable, not just the serial
// fallback.
func FuzzScanInt64(f *testing.F) {
	p := NewPool(8) // shared: a per-execution pool would leak parked workers
	f.Add([]byte{}, uint16(0), uint8(0))
	f.Add([]byte{1}, uint16(1), uint8(1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 3}, uint16(9000), uint8(4))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint16(2048), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, repeats uint16, workers uint8) {
		var pattern []int64
		for i := 0; i+8 <= len(data) && len(pattern) < 64; i += 8 {
			pattern = append(pattern, int64(binary.LittleEndian.Uint64(data[i:])))
		}
		if len(pattern) == 0 && len(data) > 0 {
			pattern = []int64{int64(data[0])}
		}
		n := len(pattern) * (int(repeats)%2049 + 1)
		xs := make([]int64, 0, n)
		for len(xs) < n {
			xs = append(xs, pattern...)
		}
		want := make([]int64, len(xs))
		var wantTotal int64
		for i, v := range xs {
			want[i] = wantTotal
			wantTotal += v // wraparound matches ScanInt64's int64 adds
		}
		got := slices.Clone(xs)
		total := ScanInt64(p, int(workers)%8+1, got)
		if total != wantTotal {
			t.Fatalf("total = %d, want %d (n=%d workers=%d)", total, wantTotal, len(xs), int(workers)%8+1)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("prefix sums differ from serial oracle (n=%d workers=%d)", len(xs), int(workers)%8+1)
		}
	})
}

// FuzzBitmapToSlice asserts Bitmap ≡ sorted-set semantics against a
// map oracle: concurrent Set under a fuzz-chosen policy, then
// ToSlice/Count/Test, then a fuzz-chosen ClearRange, then ToSlice
// again. Every index triple in data becomes one Set.
func FuzzBitmapToSlice(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 2}, uint32(64), uint8(1), uint8(0), uint32(0), uint32(3))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint32(70000), uint8(4), uint8(2), uint32(63), uint32(129))
	f.Add([]byte{0xff, 0xfe, 0xfd}, uint32(1), uint8(7), uint8(4), uint32(0), uint32(1))
	p := NewPool(8)
	f.Fuzz(func(t *testing.T, data []byte, nSeed uint32, workers, schedSeed uint8, clearLo, clearHi uint32) {
		n := int(nSeed)%200000 + 1
		idx := make([]int, 0, len(data)/3+1)
		for i := 0; i+3 <= len(data); i += 3 {
			v := int(data[i])<<16 | int(data[i+1])<<8 | int(data[i+2])
			idx = append(idx, v%n)
		}
		b := NewBitmap(n)
		oracle := make(map[int]bool, len(idx))
		for _, v := range idx {
			oracle[v] = true
		}
		w := int(workers)%8 + 1
		sched := fuzzSchedules[int(schedSeed)%len(fuzzSchedules)]
		// Concurrent, possibly duplicated sets: idempotent by contract.
		For(p, w, len(idx), 4, sched, func(lo, hi, chunk, worker int) {
			for i := lo; i < hi; i++ {
				b.Set(idx[i])
			}
		})
		checkBitmapOracle(t, b, oracle, p, w)

		lo, hi := int(clearLo)%(n+1), int(clearHi)%(n+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		b.ClearRange(lo, hi)
		for v := range oracle {
			if v >= lo && v < hi {
				delete(oracle, v)
			}
		}
		checkBitmapOracle(t, b, oracle, p, w)
	})
}

// checkBitmapOracle compares every Bitmap observer against the map
// oracle: ToSlice (parallel and serial paths), Count, and Test.
func checkBitmapOracle(t *testing.T, b *Bitmap, oracle map[int]bool, p *Pool, workers int) {
	t.Helper()
	want := make([]uint32, 0, len(oracle))
	for v := range oracle {
		want = append(want, uint32(v))
	}
	slices.Sort(want)
	if got := b.ToSlice(p, workers, nil); !slices.Equal(got, want) {
		t.Fatalf("ToSlice(workers=%d) differs from sorted oracle: %d items vs %d", workers, len(got), len(want))
	}
	if got := b.appendSerial(nil); !slices.Equal(got, want) {
		t.Fatalf("serial ToSlice differs from sorted oracle")
	}
	if got := b.Count(); got != len(oracle) {
		t.Fatalf("Count = %d, want %d", got, len(oracle))
	}
	for i, v := range want {
		if !b.Test(int(v)) {
			t.Fatalf("Test(%d) = false for a set index", v)
		}
		// Probe the gap after each set index too.
		if g := int(v) + 1; g < b.Len() && i+1 < len(want) && want[i+1] != v+1 && b.Test(g) != oracle[g] {
			t.Fatalf("Test(%d) = %v, oracle %v", g, b.Test(g), oracle[g])
		}
	}
}

// fuzzChunkItems derives chunk c's pushed items as a pure function of
// (seed, chunk id) — the deterministic-producer contract under which
// ChunkQueue promises a schedule-independent drain.
func fuzzChunkItems(seed uint64, c int) []uint32 {
	r := xrand.New(seed ^ xrand.Mix64(uint64(c)+0xc0ffee))
	items := make([]uint32, r.Uint64()%23)
	for i := range items {
		items[i] = uint32(c)<<8 | uint32(r.Uint64()%256)
	}
	return items
}

// fuzzFillChunkQueue runs one region that Puts fuzzChunkItems for
// every chunk — as fresh slices when sl is nil, else appended into the
// workers' scratch and Kept in sl the way the kernels fill a queue.
func fuzzFillChunkQueue(p *Pool, cq *ChunkQueue[uint32], sl *Slab[uint32], seed uint64, workers, n, grain int, sched Sched, topo Topology) {
	cq.Reset(NumChunks(n, grain))
	if sl != nil {
		sl.Reset(workers)
	}
	ForTopo(p, workers, n, grain, sched, topo, func(lo, hi, chunk, worker int) {
		if sl == nil {
			cq.Put(chunk, fuzzChunkItems(seed, chunk))
			return
		}
		buf := sl.Take(worker)
		for _, it := range fuzzChunkItems(seed, chunk) {
			buf = append(buf, it)
		}
		cq.Put(chunk, sl.Keep(worker, buf))
	})
}

// chunkQueueConcat is the concatenation a consumer ranging over
// Chunks sees.
func chunkQueueConcat(cq *ChunkQueue[uint32]) []uint32 {
	var got []uint32
	for _, b := range cq.Chunks() {
		got = append(got, b...)
	}
	return got
}

// FuzzChunkQueueDrain asserts the ChunkQueue drain is a pure function
// of (chunk id, push order within chunk): whatever the policy, socket
// topology, worker count, or goroutine interleaving — and whether the
// chunk buffers are fresh slices or copies Kept in a reused Slab — the
// concatenated sequence equals the serially built reference, and
// repeated concurrent runs reproduce it exactly.
func FuzzChunkQueueDrain(f *testing.F) {
	f.Add(uint64(1), uint16(300), uint8(16), uint8(2), uint8(3))
	f.Add(uint64(42), uint16(4097), uint8(1), uint8(0), uint8(0))
	f.Add(uint64(0xdead), uint16(33), uint8(63), uint8(7), uint8(4))
	p := NewPool(8)
	f.Fuzz(func(t *testing.T, seed uint64, nSeed uint16, grainSeed, workers, schedSeed uint8) {
		n := int(nSeed) % 5000
		grain := int(grainSeed)%64 + 1
		w := int(workers)%9 + 1
		sched := fuzzSchedules[int(schedSeed)%len(fuzzSchedules)]
		topo := Topology{Sockets: int(schedSeed)%4 + 1, Nodes: int(schedSeed)/4%3 + 1}

		var want []uint32
		for c := 0; c < NumChunks(n, grain); c++ {
			want = append(want, fuzzChunkItems(seed, c)...)
		}
		cq := NewChunkQueue[uint32]()
		var sl Slab[uint32]
		for rep := 0; rep < 4; rep++ {
			var backing *Slab[uint32] // odd reps reuse the slab
			if rep%2 == 1 {
				backing = &sl
			}
			fuzzFillChunkQueue(p, cq, backing, seed, w, n, grain, sched, topo)
			if got := cq.AppendTo(nil); !slices.Equal(got, want) {
				t.Fatalf("rep=%d sched=%v workers=%d topo=%+v: drain differs from serial reference",
					rep, sched, w, topo)
			}
			if got := chunkQueueConcat(cq); !slices.Equal(got, want) {
				t.Fatalf("rep=%d sched=%v workers=%d topo=%+v: Chunks differs from serial reference",
					rep, sched, w, topo)
			}
			if cq.Len() != len(want) {
				t.Fatalf("Len = %d, want %d", cq.Len(), len(want))
			}
		}
	})
}
