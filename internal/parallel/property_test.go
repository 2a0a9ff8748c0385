// Randomized property tests for the frontier/scan primitives — the
// always-on companions of the fuzz targets in fuzz_test.go, shaped to
// hit the boundaries fuzzing finds slowly: empty and single-element
// scans, chunk-grain-aligned bitmap ranges, block-boundary scan
// lengths, and heavily oversubscribed regions whose goroutine
// interleavings are adversarial by construction. All of it runs under
// `make race`.
package parallel

import (
	"math"
	"slices"
	"testing"

	"github.com/hpcl-repro/epg/internal/xrand"
)

// serialScanOracle is the trivially-correct exclusive prefix sum.
func serialScanOracle(xs []int64) ([]int64, int64) {
	out := make([]int64, len(xs))
	var run int64
	for i, v := range xs {
		out[i] = run
		run += v
	}
	return out, run
}

// TestScanInt64BoundaryShapes checks ScanInt64 against the serial
// oracle on the shapes named by the primitives' contracts: empty,
// single, all-zero, and "maxed" inputs (extreme int64 values whose
// wrapping sums must still match the oracle), at lengths straddling
// the serial cutoff and the per-worker block boundaries.
func TestScanInt64BoundaryShapes(t *testing.T) {
	p := NewPool(8)
	lengths := []int{0, 1, 2, 3,
		scanSerialCutoff - 1, scanSerialCutoff, scanSerialCutoff + 1,
		2*scanSerialCutoff - 1, 2 * scanSerialCutoff, 2*scanSerialCutoff + 7,
		4*scanSerialCutoff + 13}
	fills := map[string]func(i int) int64{
		"zero":  func(i int) int64 { return 0 },
		"ones":  func(i int) int64 { return 1 },
		"ramp":  func(i int) int64 { return int64(i%911) - 400 },
		"maxed": func(i int) int64 { return [2]int64{math.MaxInt64, math.MinInt64 + 3}[i%2] },
		"rand":  func(i int) int64 { return int64(xrand.Mix64(uint64(i))) },
	}
	for name, fill := range fills {
		for _, n := range lengths {
			xs := make([]int64, n)
			for i := range xs {
				xs[i] = fill(i)
			}
			want, wantTotal := serialScanOracle(xs)
			for _, workers := range []int{1, 2, 3, 8} {
				got := slices.Clone(xs)
				total := ScanInt64(p, workers, got)
				if total != wantTotal {
					t.Fatalf("%s n=%d workers=%d: total %d, want %d", name, n, workers, total, wantTotal)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s n=%d workers=%d: prefix sums differ from oracle", name, n, workers)
				}
			}
		}
	}
}

// TestBitmapMatchesMapOracle drives random Set/ClearRange rounds
// against a map-based set, checking ToSlice (both paths), Count, and
// Test after every round. Range endpoints mix word-aligned and
// unaligned values so the masked boundary words get hit.
func TestBitmapMatchesMapOracle(t *testing.T) {
	p := NewPool(8)
	r := xrand.New(0xb17a9)
	for round := 0; round < 30; round++ {
		n := int(r.Uint64()%5000) + 1
		b := NewBitmap(n)
		oracle := make(map[int]bool)
		idx := make([]int, r.Uint64()%2000)
		for i := range idx {
			idx[i] = int(r.Uint64() % uint64(n))
			oracle[idx[i]] = true
		}
		sched := fuzzSchedules[int(r.Uint64()%uint64(len(fuzzSchedules)))]
		workers := int(r.Uint64()%8) + 1
		For(p, workers, len(idx), 8, sched, func(lo, hi, chunk, worker int) {
			for i := lo; i < hi; i++ {
				b.Set(idx[i])
			}
		})
		checkBitmapOracle(t, b, oracle, p, workers)

		// A few clears per round: aligned, unaligned, and degenerate.
		for _, rng := range [][2]int{
			{int(r.Uint64() % uint64(n+1)), int(r.Uint64() % uint64(n+1))},
			{(n / 2) &^ 63, n},
			{n / 3, n / 3}, // empty range: no-op
		} {
			lo, hi := rng[0], rng[1]
			if lo > hi {
				lo, hi = hi, lo
			}
			b.ClearRange(lo, hi)
			for v := range oracle {
				if v >= lo && v < hi {
					delete(oracle, v)
				}
			}
			checkBitmapOracle(t, b, oracle, p, workers)
		}
	}
}

// TestChunkQueueAdversarialInterleavings oversubscribes a tiny pool
// (16 workers on 4 idle slots) so region bodies interleave as wildly
// as the host allows, across every policy and socket layout, and
// requires the chunk-ordered drain to stay equal to the serially built
// reference on every one of many rounds — odd rounds through one Slab
// reused across them. With -race (make race) this doubles as the
// ChunkQueue/Slab/For memory-model wall.
func TestChunkQueueAdversarialInterleavings(t *testing.T) {
	p := NewPool(4)
	r := xrand.New(0xcadce5)
	cq := NewChunkQueue[uint32]()
	var sl Slab[uint32]
	for round := 0; round < 40; round++ {
		seed := r.Uint64()
		n := int(r.Uint64() % 3000)
		grain := int(r.Uint64()%48) + 1
		sched := fuzzSchedules[int(r.Uint64()%uint64(len(fuzzSchedules)))]
		topo := Topology{Sockets: int(r.Uint64()%4) + 1}
		workers := int(r.Uint64()%16) + 1

		var want []uint32
		for c := 0; c < NumChunks(n, grain); c++ {
			want = append(want, fuzzChunkItems(seed, c)...)
		}

		var backing *Slab[uint32]
		if round%2 == 1 {
			backing = &sl
		}
		fuzzFillChunkQueue(p, cq, backing, seed, workers, n, grain, sched, topo)
		if got := chunkQueueConcat(cq); !slices.Equal(got, want) {
			t.Fatalf("round=%d sched=%v workers=%d sockets=%d grain=%d: drain differs from reference",
				round, sched, workers, topo.Sockets, grain)
		}
	}
}
