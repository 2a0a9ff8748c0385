package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

func TestUvarintRoundTripBoundaries(t *testing.T) {
	cases := []uint64{
		0, 1, 0x7f, 0x80, 0x3fff, 0x4000, 0x1fffff, 0x200000,
		math.MaxUint32 - 1, math.MaxUint32, uint64(math.MaxUint32) + 1,
		math.MaxUint64 >> 1, math.MaxUint64,
	}
	for _, x := range cases {
		buf := make([]byte, 10)
		n := putUvarint(buf, x)
		if n != uvarintLen(x) {
			t.Errorf("putUvarint(%d) wrote %d bytes, uvarintLen says %d", x, n, uvarintLen(x))
		}
		got, m := uvarint(buf[:n])
		if got != x || m != n {
			t.Errorf("uvarint(putUvarint(%d)) = %d, %d; want %d, %d", x, got, m, x, n)
		}
		// Byte-compatible with the standard library encoding.
		std := make([]byte, binary.MaxVarintLen64)
		sn := binary.PutUvarint(std, x)
		if !bytes.Equal(std[:sn], buf[:n]) {
			t.Errorf("putUvarint(%d) = %x, binary.PutUvarint = %x", x, buf[:n], std[:sn])
		}
	}
}

func TestUvarintMalformed(t *testing.T) {
	if v, n := uvarint(nil); v != 0 || n != 0 {
		t.Errorf("uvarint(nil) = %d, %d; want 0, 0", v, n)
	}
	// Truncated: continuation bit set on the last byte.
	if v, n := uvarint([]byte{0x80, 0x80}); v != 0 || n != 0 {
		t.Errorf("uvarint(truncated) = %d, %d; want 0, 0", v, n)
	}
	// Overflow: 11 continuation groups.
	over := bytes.Repeat([]byte{0x80}, 10)
	over = append(over, 0x01)
	if v, n := uvarint(over); v != 0 || n != -1 {
		t.Errorf("uvarint(overflow) = %d, %d; want 0, -1", v, n)
	}
	// 10th byte carrying more than the top bit overflows uint64.
	big := bytes.Repeat([]byte{0xff}, 9)
	big = append(big, 0x02)
	if v, n := uvarint(big); v != 0 || n != -1 {
		t.Errorf("uvarint(10th byte > 1) = %d, %d; want 0, -1", v, n)
	}
}

func TestZigzagRoundTrip(t *testing.T) {
	for _, x := range []int64{0, -1, 1, -2, 2, math.MinInt32, math.MaxInt32, math.MinInt64, math.MaxInt64} {
		if got := unzigzag(zigzag(x)); got != x {
			t.Errorf("unzigzag(zigzag(%d)) = %d", x, got)
		}
	}
	// Small magnitudes must stay small (the point of the fold).
	for want, x := range []int64{0, -1, 1, -2, 2} {
		if got := zigzag(x); got != uint64(want) {
			t.Errorf("zigzag(%d) = %d, want %d", x, got, want)
		}
	}
}

// compressedEqualsRaw asserts every decode path on cc reproduces c.
func compressedEqualsRaw(t *testing.T, c *CSR, cc *CompressedCSR) {
	t.Helper()
	if err := cc.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if cc.NumVertices != c.NumVertices {
		t.Fatalf("NumVertices = %d, want %d", cc.NumVertices, c.NumVertices)
	}
	var buf []VID
	for v := 0; v < c.NumVertices; v++ {
		want := c.Neighbors(VID(v))
		buf = cc.DecodeNeighbors(VID(v), buf)
		if len(buf) != len(want) {
			t.Fatalf("vertex %d: decoded %d neighbors, want %d", v, len(buf), len(want))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("vertex %d neighbor %d: decoded %d, want %d", v, i, buf[i], want[i])
			}
		}
		d := cc.Decoder(VID(v))
		for i := range want {
			u, ok := d.Next()
			if !ok || u != want[i] {
				t.Fatalf("vertex %d Next #%d = %d, %v; want %d, true", v, i, u, ok, want[i])
			}
		}
		if _, ok := d.Next(); ok {
			t.Fatalf("vertex %d: Next past end returned ok", v)
		}
		if int64(d.BytesRead()) != cc.EncodedBytes(VID(v)) {
			t.Fatalf("vertex %d: BytesRead %d, stream %d bytes", v, d.BytesRead(), cc.EncodedBytes(VID(v)))
		}
	}
}

func TestCompressCSRSmall(t *testing.T) {
	// Exercises empty lists, a single neighbor below the source
	// (negative first delta), duplicate neighbors (gap 0), and a hub.
	el := &EdgeList{
		NumVertices: 8,
		Edges: []Edge{
			{5, 0, 0}, {5, 0, 0}, // duplicates kept without Dedup
			{1, 7, 0}, {1, 0, 0}, {1, 3, 0},
			{6, 6, 0}, // self-loop kept without DropSelfLoops
			{0, 1, 0}, {0, 2, 0}, {0, 3, 0}, {0, 4, 0}, {0, 5, 0}, {0, 6, 0}, {0, 7, 0},
		},
		Directed: true,
	}
	c := BuildCSR(el, BuildOptions{Sort: true})
	compressedEqualsRaw(t, c, CompressCSR(c, 0))
}

func TestCompressCSRRandom(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		el := randomEdgeList(seed, 200, 3000, false)
		c := BuildCSR(el, BuildOptions{Symmetrize: true, DropSelfLoops: true, Sort: true})
		compressedEqualsRaw(t, c, CompressCSR(c, 0))
	}
}

func TestCompressCSRDeterministicAcrossWorkers(t *testing.T) {
	// Above the serial cutoff so the parallel path actually runs.
	el := randomEdgeList(7, 1024, 3*compressSerialCutoff, false)
	c := BuildCSR(el, BuildOptions{Symmetrize: true, Sort: true})
	ref := CompressCSR(c, 1)
	for _, w := range []int{2, 3, 4, 8} {
		got := CompressCSR(c, w)
		if !bytes.Equal(ref.Data, got.Data) {
			t.Fatalf("workers=%d: byte layout differs from workers=1", w)
		}
		for i := range ref.Offsets {
			if ref.Offsets[i] != got.Offsets[i] {
				t.Fatalf("workers=%d: offsets[%d] = %d, want %d", w, i, got.Offsets[i], ref.Offsets[i])
			}
		}
	}
}

func TestCompressCSRPanicsOnUnsorted(t *testing.T) {
	c := &CSR{NumVertices: 2, Offsets: []int64{0, 2, 2}, Adj: []VID{1, 0}}
	defer func() {
		if recover() == nil {
			t.Fatal("CompressCSR accepted unsorted adjacency")
		}
	}()
	CompressCSR(c, 1)
}

func TestCompressedCSRValidateRejectsCorruption(t *testing.T) {
	el := randomEdgeList(3, 64, 400, false)
	c := BuildCSR(el, BuildOptions{Symmetrize: true, Sort: true})
	cc := CompressCSR(c, 1)
	if err := cc.Validate(); err != nil {
		t.Fatalf("valid structure rejected: %v", err)
	}
	bad := &CompressedCSR{NumVertices: cc.NumVertices, Offsets: cc.Offsets, Data: cc.Data[:len(cc.Data)-1]}
	if err := bad.Validate(); err == nil {
		t.Error("truncated data accepted")
	}
}

func TestDecodeNeighborsReusesBuffer(t *testing.T) {
	el := randomEdgeList(11, 32, 256, false)
	c := BuildCSR(el, BuildOptions{Symmetrize: true, Sort: true})
	cc := CompressCSR(c, 1)
	buf := make([]VID, 0, c.NumVertices)
	allocs := testing.AllocsPerRun(100, func() {
		for v := 0; v < c.NumVertices; v++ {
			buf = cc.DecodeNeighbors(VID(v), buf)
		}
	})
	if allocs != 0 {
		t.Errorf("DecodeNeighbors allocated %.1f times per sweep, want 0", allocs)
	}
}
