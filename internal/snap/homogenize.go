package snap

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"strconv"

	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/parallel"
)

// Format names one engine's preferred on-disk representation. The
// homogenization phase of the paper converts a source graph into every
// format once, so that no engine pays conversion cost at run time.
type Format string

const (
	// FormatSNAP is the common text interchange format.
	FormatSNAP Format = "snap"
	// FormatGraph500 is the packed binary edge list consumed by the
	// Graph500 reference (pairs of little-endian uint32, with a
	// small header added here for safety).
	FormatGraph500 Format = "graph500-bin"
	// FormatGraphMat is a 1-indexed Matrix Market-like coordinate
	// listing, GraphMat's native input.
	FormatGraphMat Format = "graphmat-mtx"
	// FormatAdjacency is Ligra/GAP-style adjacency text: header,
	// offsets, then neighbor lists.
	FormatAdjacency Format = "adjacency"
)

// AllFormats lists every supported homogenization target.
var AllFormats = []Format{FormatSNAP, FormatGraph500, FormatGraphMat, FormatAdjacency}

const g500Magic = 0x47353030 // "G500"

// WriteFormat converts el into the requested format on w.
func WriteFormat(w io.Writer, el *graph.EdgeList, f Format, name string) error {
	switch f {
	case FormatSNAP:
		return Write(w, el, name)
	case FormatGraph500:
		return writeGraph500(w, el)
	case FormatGraphMat:
		return writeGraphMat(w, el, name)
	case FormatAdjacency:
		return writeAdjacency(w, el)
	default:
		return fmt.Errorf("snap: unknown format %q", f)
	}
}

func writeGraph500(w io.Writer, el *graph.EdgeList) error {
	head := binary.LittleEndian.AppendUint32(nil, g500Magic)
	head = binary.LittleEndian.AppendUint32(head, uint32(el.NumVertices))
	head = binary.LittleEndian.AppendUint64(head, uint64(len(el.Edges)))
	return writeOrdered(w, head, len(el.Edges), func(dst []byte, i int) []byte {
		return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(dst, el.Edges[i].Src), el.Edges[i].Dst)
	})
}

// ReadGraph500 parses the packed binary edge list format. The header's
// edge count is a claim: the list is reserved only up to what the input
// can hold and grows as edges arrive, so a file cannot make the reader
// allocate more than a small multiple of its own length.
func ReadGraph500(r io.Reader) (*graph.EdgeList, error) {
	limit := uint64(inputBytes(r)) / 8
	br := bufio.NewReaderSize(r, 64<<10)
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("snap: graph500 header: %v", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != g500Magic {
		return nil, fmt.Errorf("snap: not a graph500 binary edge list")
	}
	n := binary.LittleEndian.Uint32(hdr[4:])
	m := binary.LittleEndian.Uint64(hdr[8:])
	if n == 0 {
		return nil, fmt.Errorf("snap: graph500 header: no vertices")
	}
	el := &graph.EdgeList{NumVertices: int(n), Edges: make([]graph.Edge, 0, min(m, limit))}
	var buf [8]byte
	for i := uint64(0); i < m; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("snap: graph500 edge %d: %v", i, err)
		}
		e := graph.Edge{Src: binary.LittleEndian.Uint32(buf[0:]), Dst: binary.LittleEndian.Uint32(buf[4:])}
		if e.Src >= n || e.Dst >= n {
			return nil, fmt.Errorf("snap: graph500 edge %d: endpoint of %d->%d outside [0,%d)", i, e.Src, e.Dst, n)
		}
		el.Edges = append(el.Edges, e)
	}
	return el, nil
}

func writeGraphMat(w io.Writer, el *graph.EdgeList, name string) error {
	n := el.NumVertices
	head := fmt.Appendf(nil, "%%%%MatrixMarket matrix coordinate real general\n%% %s\n%d %d %d\n", name, n, n, len(el.Edges))
	return writeOrdered(w, head, len(el.Edges), func(dst []byte, i int) []byte {
		e := el.Edges[i]
		if !el.Weighted {
			e.W = 1
		}
		// GraphMat is 1-indexed.
		return append(appendWeight(append(appendEdge(dst, e.Src+1, e.Dst+1, ' '), ' '), e.W), '\n')
	})
}

func writeAdjacency(w io.Writer, el *graph.EdgeList) error {
	csr := graph.BuildCSR(el, graph.BuildOptions{})
	kind := "AdjacencyGraph"
	if el.Weighted {
		kind = "WeightedAdjacencyGraph"
	}
	n, m := csr.NumVertices, len(csr.Adj)
	head := fmt.Appendf(nil, "%s\n%d\n%d\n", kind, n, m)
	return writeOrdered(w, head, n+m+len(csr.Weights), func(dst []byte, i int) []byte {
		switch {
		case i < n:
			dst = strconv.AppendInt(dst, csr.Offsets[i], 10)
		case i < n+m:
			dst = strconv.AppendUint(dst, uint64(csr.Adj[i-n]), 10)
		default:
			dst = appendWeight(dst, csr.Weights[i-n-m])
		}
		return append(dst, '\n')
	})
}

// writeBlock is how many items writeOrdered formats into one buffer.
const writeBlock = 2048

// writeOrdered writes head, then items 0..n-1 in order, to w; format
// appends item i to dst. Pool workers format blocks of writeBlock items
// into a ring of GOMAXPROCS+1 buffers while worker 0 writes the
// finished ones in order, formatting too while the next one is not
// ready. Block b+len(ring) is handed out only once block b is written,
// so no buffer is reused early, and the bytes do not depend on the
// worker count. The first write error is returned.
func writeOrdered(w io.Writer, head []byte, n int, format func(dst []byte, i int) []byte) error {
	blocks := max(parallel.NumChunks(n, writeBlock), 1) // block 0 carries head
	ring := make([][]byte, runtime.GOMAXPROCS(0)+1)
	for b := range ring {
		ring[b] = make([]byte, 0, 40*writeBlock) // the widest item is a weighted SNAP line
	}
	fill := func(b int) {
		dst := ring[b%len(ring)][:0]
		if b == 0 {
			dst = append(dst, head...)
		}
		for i := b * writeBlock; i < min(n, (b+1)*writeBlock); i++ {
			dst = format(dst, i)
		}
		ring[b%len(ring)] = dst
	}
	jobs, done := make(chan int, len(ring)), make(chan int, len(ring))
	handed := 0
	hand := func() {
		jobs <- handed
		if handed++; handed == blocks {
			close(jobs)
		}
	}
	for handed < min(blocks, len(ring)) {
		hand()
	}
	var err error
	parallel.Default().Run(min(len(ring)-1, blocks), func(worker int) {
		if worker > 0 {
			for b := range jobs {
				fill(b)
				done <- b
			}
			return
		}
		defer func() {
			if handed < blocks {
				close(jobs)
			}
		}()
		ready := make([]bool, len(ring))
		in := jobs
		for b := 0; b < blocks && err == nil; b++ {
			for !ready[b%len(ring)] {
				select {
				case j, ok := <-in:
					if !ok {
						in = nil
						continue
					}
					fill(j)
					ready[j%len(ring)] = true
				case j := <-done:
					ready[j%len(ring)] = true
				}
			}
			ready[b%len(ring)] = false
			if _, err = w.Write(ring[b%len(ring)]); err == nil && handed < blocks {
				hand()
			}
		}
	})
	return err
}
