package kronecker

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/xrand"
)

// edgeDigest is the FNV-64a hash of every edge's (Src, Dst, weight bits)
// in order, little-endian.
func edgeDigest(el *graph.EdgeList) uint64 {
	h := fnv.New64a()
	var b [12]byte
	for _, e := range el.Edges {
		binary.LittleEndian.PutUint32(b[0:], e.Src)
		binary.LittleEndian.PutUint32(b[4:], e.Dst)
		binary.LittleEndian.PutUint32(b[8:], math.Float32bits(e.W))
		h.Write(b[:])
	}
	return h.Sum64()
}

// The generator's output is pinned edge for edge: these digests were
// recorded from the float-compare sampler, so any change to the
// sampling, the weights or the permutation shows up here, and so does
// any dependence on the worker count.
func TestGenerateDigest(t *testing.T) {
	want := map[[2]uint64]uint64{
		{10, 1}:  0xee78503c9a603d4b,
		{13, 1}:  0x5eea8e1d536d8919,
		{13, 7}:  0x12b16ec28b886986,
		{16, 42}: 0xc6bdb831800638ca,
	}
	for key, digest := range want {
		for _, workers := range []int{1, 2, 7} {
			el := Generate(Params{Scale: int(key[0]), Seed: key[1], Workers: workers})
			if got := edgeDigest(el); got != digest {
				t.Errorf("scale %d seed %d workers %d: digest %#x, want %#x", key[0], key[1], workers, got, digest)
			}
		}
	}
}

// floatQuadrant is the sampler's original float compare, kept as the
// oracle for the integer thresholds.
func floatQuadrant(x uint64) (iBit, jBit uint64) {
	p := float64(x) / (1 << 53)
	switch {
	case p < A:
	case p < A+B:
		jBit = 1
	case p < A+B+C:
		iBit = 1
	default:
		iBit, jBit = 1, 1
	}
	return iBit, jBit
}

// The integer compare must pick the quadrant the float compare picks
// for every 53-bit draw: at each threshold, on both sides of it, and on
// random draws.
func TestQuadrantMatchesFloatCompare(t *testing.T) {
	check := func(x uint64) {
		gi, gj := quadrant(x)
		wi, wj := floatQuadrant(x)
		if gi != wi || gj != wj {
			t.Fatalf("x = %#x: quadrant (%d, %d), float compare (%d, %d)", x, gi, gj, wi, wj)
		}
	}
	for _, th := range []uint64{thresholdA, thresholdAB, thresholdABC} {
		check(th - 1)
		check(th)
		check(th + 1)
	}
	check(0)
	check(1<<53 - 1)
	r := xrand.New(31)
	for i := 0; i < 1_000_000; i++ {
		check(r.Uint64() >> 11)
	}
}
