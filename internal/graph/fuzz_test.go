// Fuzz targets for the delta+varint adjacency codec: the varint layer
// against encoding/binary as oracle, and whole-graph compression
// against CSR.Neighbors under every scheduling policy and several
// worker counts. The seed corpus runs in plain `go test` (and so under
// `make race`); CI also runs each target with a bounded -fuzztime on a
// GOMAXPROCS matrix.
package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"sync/atomic"
	"testing"

	"github.com/hpcl-repro/epg/internal/parallel"
	"github.com/hpcl-repro/epg/internal/xrand"
)

// fuzzSchedules maps a fuzz byte onto a policy; NUMA appears twice so
// a random byte exercises the two-level path as often as the rest.
var fuzzSchedules = []parallel.Sched{
	parallel.Static, parallel.Dynamic, parallel.Steal, parallel.NUMA, parallel.NUMA,
}

// FuzzVarintRoundTrip checks the codec's three layers on adversarial
// values: every 4-byte group of data becomes a gap in a synthetic
// sorted adjacency row, so boundary deltas (0, 1, the 0x7f/0x80 and
// 0x3fff/0x4000 word boundaries, MaxUint32-scale jumps) and list
// shapes (empty, single, hub-degree) all reach the full
// encode→decode→compare path; the raw bytes are also decoded as a
// hostile stream to pin the no-panic contract.
func FuzzVarintRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint32(0))
	f.Add([]byte{0, 0, 0, 0}, uint32(1)) // gap 0: duplicate neighbor
	f.Add([]byte{1, 0, 0, 0, 0x7f, 0, 0, 0, 0x80, 0, 0, 0}, uint32(0x7f))
	f.Add([]byte{0xff, 0x3f, 0, 0, 0, 0x40, 0, 0}, uint32(0x4000))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint32(0)) // MaxUint32-scale gap
	f.Add(bytes.Repeat([]byte{0xff}, 64), uint32(math.MaxUint32))
	f.Fuzz(func(t *testing.T, data []byte, first uint32) {
		// Layer 1: each group's value round-trips and matches the
		// standard library's byte layout.
		var gaps []uint32
		for i := 0; i+4 <= len(data) && len(gaps) < 256; i += 4 {
			gaps = append(gaps, binary.LittleEndian.Uint32(data[i:]))
		}
		buf := make([]byte, 10)
		std := make([]byte, binary.MaxVarintLen64)
		for _, g := range gaps {
			for _, x := range []uint64{uint64(g), zigzag(int64(g)), zigzag(-int64(g))} {
				n := putUvarint(buf, x)
				if n != uvarintLen(x) {
					t.Fatalf("putUvarint(%d) wrote %d bytes, uvarintLen says %d", x, n, uvarintLen(x))
				}
				v, m := uvarint(buf[:n])
				if v != x || m != n {
					t.Fatalf("uvarint(putUvarint(%d)) = %d, %d", x, v, m)
				}
				if sn := binary.PutUvarint(std, x); !bytes.Equal(std[:sn], buf[:n]) {
					t.Fatalf("encoding of %d diverges from binary.PutUvarint", x)
				}
			}
			if g2 := unzigzag(zigzag(-int64(g))); g2 != -int64(g) {
				t.Fatalf("zigzag round trip of %d = %d", -int64(g), g2)
			}
		}

		// Layer 2: a synthetic one-vertex CSR whose row starts at
		// `first` and walks the fuzzed gaps (saturating at MaxUint32 so
		// the list stays sorted). CompressCSR doesn't range-check
		// neighbors, so MaxUint32-scale IDs exercise the widest deltas.
		adj := make([]VID, 0, len(gaps)+1)
		cur := uint64(first)
		adj = append(adj, VID(cur))
		for _, g := range gaps {
			cur += uint64(g)
			if cur > math.MaxUint32 {
				cur = math.MaxUint32
			}
			adj = append(adj, VID(cur))
		}
		if len(data) == 0 {
			adj = adj[:0] // empty-list shape
		}
		c := &CSR{NumVertices: 1, Offsets: []int64{0, int64(len(adj))}, Adj: adj}
		cc := CompressCSR(c, 1)
		got := cc.DecodeNeighbors(0, nil)
		if len(got) != len(adj) {
			t.Fatalf("decoded %d neighbors, want %d", len(got), len(adj))
		}
		for i := range adj {
			if got[i] != adj[i] {
				t.Fatalf("neighbor %d: decoded %d, want %d", i, got[i], adj[i])
			}
		}
		d := cc.Decoder(0)
		for range adj {
			d.Next()
		}
		if int64(d.BytesRead()) != cc.TotalBytes() {
			t.Fatalf("BytesRead %d after full decode, stream is %d bytes", d.BytesRead(), cc.TotalBytes())
		}

		// Layer 3: hostile bytes. uvarint must never panic, read out of
		// range, or claim more bytes than exist.
		v, n := uvarint(data)
		if n > len(data) || n > 10 || n < -1 {
			t.Fatalf("uvarint on hostile input returned n=%d (len %d)", n, len(data))
		}
		if n > 0 && uvarintLen(v) > n {
			t.Fatalf("decoded %d from %d bytes but canonical encoding needs %d", v, n, uvarintLen(v))
		}
	})
}

// FuzzCompressedCSREquivalence asserts decode(encode(adj)) ≡
// CSR.Neighbors on randomized graphs: the compressed layout is
// byte-identical at every worker count, Validate accepts it, and a
// parallel decode sweep under a fuzz-chosen scheduling policy (all
// four reachable) reproduces every raw adjacency list exactly.
func FuzzCompressedCSREquivalence(f *testing.F) {
	f.Add(uint64(1), uint16(5), uint16(0), uint8(0), uint8(0), uint8(0))    // edgeless
	f.Add(uint64(2), uint16(64), uint16(300), uint8(3), uint8(1), uint8(1)) // undirected, dedup
	f.Add(uint64(3), uint16(500), uint16(4000), uint8(7), uint8(2), uint8(2))
	f.Add(uint64(0xbeef), uint16(2), uint16(4000), uint8(4), uint8(3), uint8(0)) // hub-degree rows
	p := parallel.NewPool(8)
	f.Fuzz(func(t *testing.T, seed uint64, nSeed, mSeed uint16, workers, schedSeed, optSeed uint8) {
		n := int(nSeed)%512 + 1
		m := int(mSeed) % 4096
		el := randomEdgeList(seed, n, m, optSeed&4 != 0)
		c := BuildCSR(el, BuildOptions{
			Symmetrize:    optSeed&1 != 0,
			Dedup:         optSeed&2 != 0,
			DropSelfLoops: true,
			Sort:          true,
		})

		// Deterministic layout: any worker count, same bytes.
		cc := CompressCSR(c, 1)
		if alt := CompressCSR(c, int(workers)%8+1); !bytes.Equal(cc.Data, alt.Data) {
			t.Fatalf("workers=%d produces a different byte layout", int(workers)%8+1)
		}
		if err := cc.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}

		// Parallel decode sweep under the fuzz-chosen policy.
		w := int(workers)%8 + 1
		sched := fuzzSchedules[int(schedSeed)%len(fuzzSchedules)]
		var bad int64 = -1
		parallel.For(p, w, n, 16, sched, func(lo, hi, chunk, worker int) {
			var buf []VID
			for v := lo; v < hi; v++ {
				buf = cc.DecodeNeighbors(VID(v), buf)
				want := c.Neighbors(VID(v))
				if len(buf) != len(want) {
					atomic.StoreInt64(&bad, int64(v))
					return
				}
				for i := range want {
					if buf[i] != want[i] {
						atomic.StoreInt64(&bad, int64(v))
						return
					}
				}
			}
		})
		if v := atomic.LoadInt64(&bad); v >= 0 {
			t.Fatalf("sched=%v workers=%d: vertex %d decodes differently from CSR.Neighbors", sched, w, v)
		}

		// The early-exit scan against a fuzz-chosen frontier (empty for
		// a quarter of the inputs: the no-hit case on every row): both
		// formats stop at the raw scan's first hit, and the compressed
		// one has read exactly what the streaming decoder has consumed
		// at that point — the whole stream when nothing hits.
		front := parallel.NewBitmap(n)
		if density := int(schedSeed>>2) % 4; density > 0 {
			r := xrand.New(seed ^ 0xf1257)
			for v := 0; v < n; v++ {
				if r.Intn(1<<density) == 0 {
					front.Set(v)
				}
			}
		}
		for v := 0; v < n; v++ {
			adj := c.Neighbors(VID(v))
			wantU, wantScanned, wantOK := VID(0), int64(len(adj)), false
			d := cc.Decoder(VID(v))
			for i, u := range adj {
				d.Next()
				if front.Test(int(u)) {
					wantU, wantScanned, wantOK = u, int64(i+1), true
					break
				}
			}
			if u, scanned, nb, ok := c.FirstIn(VID(v), front); u != wantU || scanned != wantScanned || nb != 0 || ok != wantOK {
				t.Fatalf("CSR.FirstIn(%d) = (%d, %d, %d, %v), want (%d, %d, 0, %v)", v, u, scanned, nb, ok, wantU, wantScanned, wantOK)
			}
			if u, scanned, nb, ok := cc.FirstIn(VID(v), front); u != wantU || scanned != wantScanned || nb != int64(d.BytesRead()) || ok != wantOK {
				t.Fatalf("CompressedCSR.FirstIn(%d) = (%d, %d, %d, %v), want (%d, %d, %d, %v)", v, u, scanned, nb, ok, wantU, wantScanned, d.BytesRead(), wantOK)
			}
			if !wantOK && int64(d.BytesRead()) != cc.EncodedBytes(VID(v)) {
				t.Fatalf("vertex %d: a scan with no hit read %d of %d encoded bytes", v, d.BytesRead(), cc.EncodedBytes(VID(v)))
			}
		}
	})
}
