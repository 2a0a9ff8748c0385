package graph

import (
	"fmt"
	"runtime"
	"slices"

	"github.com/hpcl-repro/epg/internal/parallel"
)

// Varint codec. Little-endian base-128 groups, low bits first, high
// bit of each byte marking continuation — the classic LEB128 layout
// (byte-compatible with encoding/binary's Uvarint, which the fuzz wall
// uses as the oracle). Deltas between sorted uint32 neighbors fit in
// at most 5 bytes; the first-neighbor delta is signed (a neighbor may
// precede its source), so it is zigzag-folded before encoding.

// uvarintLen returns the encoded size of x in bytes.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// putUvarint encodes x at dst[0:] and returns the bytes written. The
// caller must have reserved uvarintLen(x) bytes.
func putUvarint(dst []byte, x uint64) int {
	i := 0
	for x >= 0x80 {
		dst[i] = byte(x) | 0x80
		x >>= 7
		i++
	}
	dst[i] = byte(x)
	return i + 1
}

// uvarint decodes a varint at data[0:] and returns the value and the
// bytes consumed. It returns (0, 0) on truncated input and (0, -1) on
// a value that overflows 64 bits — malformed streams never panic or
// read out of range, which the decode-robustness fuzz target relies
// on.
func uvarint(data []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, b := range data {
		if i == 9 && b > 1 {
			return 0, -1 // 10th byte may only carry the top bit
		}
		if b < 0x80 {
			if i > 9 {
				return 0, -1
			}
			return x | uint64(b)<<s, i + 1
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, 0
}

// varintAt is uvarint for the streams CompressCSR wrote, which need no
// bounds or overflow checks: it decodes the varint at data[i:] and
// returns the index after it.
func varintAt(data []byte, i int) (uint64, int) {
	b := data[i]
	x := uint64(b & 0x7f)
	for s := uint(7); b >= 0x80; s += 7 {
		i++
		b = data[i]
		x |= uint64(b&0x7f) << s
	}
	return x, i + 1
}

// zigzag folds a signed delta into an unsigned value with small
// magnitudes staying small: 0,-1,1,-2,2 → 0,1,2,3,4.
func zigzag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// CompressedCSR is a delta + varint byte-compressed adjacency
// structure (the Ligra+/GBBS encoding): vertex v's neighbor stream
// occupies Data[Offsets[v]:Offsets[v+1]] and holds, for degree d > 0,
//
//	varint(d)
//	varint(zigzag(adj[0] - v))        first neighbor, delta from source
//	varint(adj[i] - adj[i-1]) ...     remaining gaps (sorted ⇒ ≥ 0)
//
// Zero-degree vertices have empty streams. The encoding requires each
// adjacency list sorted ascending (SortAdjacency); duplicate neighbors
// are legal (gap 0). Weights are never compressed — weighted kernels
// read the raw CSR.
type CompressedCSR struct {
	NumVertices int
	Offsets     []int64 // byte offsets into Data, len NumVertices+1
	Data        []byte
}

// TotalBytes returns the size of the encoded adjacency in bytes, the
// numerator of the compression ratio (raw CSR adjacency is 4 bytes per
// directed edge).
func (c *CompressedCSR) TotalBytes() int64 { return int64(len(c.Data)) }

// EncodedBytes returns the byte length of v's neighbor stream.
func (c *CompressedCSR) EncodedBytes(v VID) int64 {
	return c.Offsets[v+1] - c.Offsets[v]
}

// NeighborDecoder streams one vertex's neighbors out of the
// compressed adjacency without allocating. It is a value type: obtain
// one with Decoder, iterate with Next, and read BytesRead for the
// compressed bytes consumed so far — a scan that breaks early (FirstIn)
// reports exactly the decoded prefix.
type NeighborDecoder struct {
	data []byte // the vertex's stream
	pos  int    // bytes consumed
	rem  int64  // neighbors remaining
	prev int64  // last decoded neighbor (source-relative before first)
	deg  int64
}

// Decoder positions a decoder at the head of v's stream and consumes
// the degree varint.
func (c *CompressedCSR) Decoder(v VID) NeighborDecoder {
	d := NeighborDecoder{data: c.Data[c.Offsets[v]:c.Offsets[v+1]], prev: int64(v)}
	if len(d.data) == 0 {
		return d
	}
	deg, n := uvarint(d.data)
	d.pos = n
	d.deg = int64(deg)
	d.rem = int64(deg)
	return d
}

// BytesRead returns the compressed bytes consumed so far, including
// the degree varint.
func (d *NeighborDecoder) BytesRead() int { return d.pos }

// Next returns the next neighbor, or ok=false when the stream is
// exhausted.
func (d *NeighborDecoder) Next() (VID, bool) {
	if d.rem <= 0 {
		return 0, false
	}
	x, pos := varintAt(d.data, d.pos)
	if d.rem == d.deg { // the first neighbor: a signed delta from the source
		d.prev += unzigzag(x)
	} else {
		d.prev += int64(x)
	}
	d.pos = pos
	d.rem--
	return VID(d.prev), true
}

// DecodeNeighbors decodes v's full neighbor list into buf (reused when
// capacity suffices) and returns the decoded slice. Pass a scratch
// buffer sized to the maximum degree for allocation-free decoding.
func (c *CompressedCSR) DecodeNeighbors(v VID, buf []VID) []VID {
	data := c.Data[c.Offsets[v]:c.Offsets[v+1]]
	if len(data) == 0 {
		return buf[:0]
	}
	deg, pos := varintAt(data, 0)
	out := slices.Grow(buf[:0], int(deg))[:deg]
	x, pos := varintAt(data, pos)
	prev := int64(v) + unzigzag(x) // a signed delta from the source; the rest are gaps
	out[0] = VID(prev)
	for i := 1; i < len(out); i++ {
		x, pos = varintAt(data, pos)
		prev += int64(x)
		out[i] = VID(prev)
	}
	return out
}

// Row decodes v's whole row into buf and reports the compressed bytes
// that took — what a full expansion charges in place of the raw
// 4 B/edge.
func (c *CompressedCSR) Row(v VID, buf *RowBuf) ([]VID, int64) {
	buf.adj = c.DecodeNeighbors(v, buf.adj)
	return buf.adj, c.EncodedBytes(v)
}

// FirstIn is CSR.FirstIn over the encoded stream: it decodes only up
// to the hit, so encodedBytes is exactly the prefix consumed (the whole
// stream when nothing hits) — what the early break is charged.
func (c *CompressedCSR) FirstIn(v VID, front *parallel.Bitmap) (u VID, scanned, encodedBytes int64, ok bool) {
	d := c.Decoder(v)
	for u, more := d.Next(); more; u, more = d.Next() {
		scanned++
		if front.Test(int(u)) {
			return u, scanned, int64(d.BytesRead()), true
		}
	}
	return 0, scanned, int64(d.BytesRead()), false
}

// Encoded reports that rows are decoded on the fly.
func (c *CompressedCSR) Encoded() bool { return true }

// Validate checks the structural invariants of the compressed
// adjacency: monotone offsets covering Data, and every stream
// well-formed (degree varint followed by exactly degree in-range
// deltas, no trailing bytes).
func (c *CompressedCSR) Validate() error {
	if c.NumVertices < 0 {
		return fmt.Errorf("graph: negative vertex count")
	}
	if len(c.Offsets) != c.NumVertices+1 {
		return fmt.Errorf("graph: offsets length %d, want %d", len(c.Offsets), c.NumVertices+1)
	}
	if c.Offsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d, want 0", c.Offsets[0])
	}
	if c.Offsets[c.NumVertices] != int64(len(c.Data)) {
		return fmt.Errorf("graph: offsets end %d, data length %d", c.Offsets[c.NumVertices], len(c.Data))
	}
	n := int64(c.NumVertices)
	for v := 0; v < c.NumVertices; v++ {
		if c.Offsets[v] > c.Offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at %d", v)
		}
		d := c.Decoder(VID(v))
		for u, ok := d.Next(); ok; u, ok = d.Next() {
			if int64(u) >= n {
				return fmt.Errorf("graph: vertex %d decodes neighbor %d out of range", v, u)
			}
		}
		if int64(d.BytesRead()) != c.EncodedBytes(VID(v)) {
			return fmt.Errorf("graph: vertex %d stream has %d trailing bytes",
				v, c.EncodedBytes(VID(v))-int64(d.BytesRead()))
		}
	}
	return nil
}

// compressSerialCutoff mirrors buildSerialCutoff: below this many
// adjacency entries the two passes run on one worker.
const compressSerialCutoff = 1 << 12

// CompressCSR encodes a sorted CSR's adjacency into a CompressedCSR
// using the builder's atomic-free two-pass discipline: pass one
// computes every vertex's encoded byte size in parallel (sizes land in
// the offsets array, one writer per vertex — no shared state), the
// sizes become byte offsets through a parallel exclusive prefix sum
// (parallel.ScanInt64), and pass two encodes each vertex into its
// reserved range of one shared byte buffer. No per-edge atomics, and
// the output layout is a pure function of the input CSR — identical
// at any worker count.
//
// Rows are read through Row, one buffer per chunk, so c may be an
// overlay epoch. The
// adjacency must be sorted ascending per vertex (BuildOptions.Sort
// or SortAdjacency); CompressCSR panics on an unsorted list rather
// than silently emitting a stream whose unsigned gaps cannot represent
// the inversion.
func CompressCSR(c *CSR, workers int) *CompressedCSR {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if c.NumEdges() < compressSerialCutoff {
		workers = 1
	}
	n := c.NumVertices
	pool := parallel.Default()

	// Pass 1: per-vertex encoded sizes. Each vertex's size depends only
	// on its own adjacency row, so chunked vertex ranges are writer-
	// disjoint by construction.
	offsets := make([]int64, n+1)
	parallel.For(pool, workers, n, 2048, parallel.Static, func(lo, hi, chunk, worker int) {
		var buf RowBuf
		for v := lo; v < hi; v++ {
			adj, _ := c.Row(VID(v), &buf)
			if len(adj) == 0 {
				continue
			}
			size := uvarintLen(uint64(len(adj))) +
				uvarintLen(zigzag(int64(adj[0])-int64(v)))
			for i := 1; i < len(adj); i++ {
				if adj[i] < adj[i-1] {
					panic(fmt.Sprintf("graph: CompressCSR requires sorted adjacency (vertex %d has %d after %d)",
						v, adj[i], adj[i-1]))
				}
				size += uvarintLen(uint64(adj[i] - adj[i-1]))
			}
			offsets[v] = int64(size)
		}
	})
	total := parallel.ScanInt64(pool, workers, offsets)

	cc := &CompressedCSR{
		NumVertices: n,
		Offsets:     offsets,
		Data:        make([]byte, total),
	}

	// Pass 2: range-reserved encode. Vertex v owns exactly
	// Data[offsets[v]:offsets[v+1]]; no other worker can touch it.
	parallel.For(pool, workers, n, 2048, parallel.Static, func(lo, hi, chunk, worker int) {
		var buf RowBuf
		for v := lo; v < hi; v++ {
			adj, _ := c.Row(VID(v), &buf)
			if len(adj) == 0 {
				continue
			}
			dst := cc.Data[offsets[v]:offsets[v+1]]
			p := putUvarint(dst, uint64(len(adj)))
			p += putUvarint(dst[p:], zigzag(int64(adj[0])-int64(v)))
			for i := 1; i < len(adj); i++ {
				p += putUvarint(dst[p:], uint64(adj[i]-adj[i-1]))
			}
		}
	})
	return cc
}
