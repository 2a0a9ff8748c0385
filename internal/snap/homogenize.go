package snap

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"

	"github.com/hpcl-repro/epg/internal/graph"
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
	bw := bufio.NewWriterSize(w, 1<<20)
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint32(hdr[0:], g500Magic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(el.NumVertices))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(el.Edges)))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	var buf [8]byte
	for _, e := range el.Edges {
		binary.LittleEndian.PutUint32(buf[0:], e.Src)
		binary.LittleEndian.PutUint32(buf[4:], e.Dst)
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
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
	bw := bufio.NewWriterSize(w, 1<<20)
	fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n%% %s\n", name)
	fmt.Fprintf(bw, "%d %d %d\n", el.NumVertices, el.NumVertices, len(el.Edges))
	var buf [64]byte
	for _, e := range el.Edges {
		w := e.W
		if !el.Weighted {
			w = 1
		}
		// GraphMat is 1-indexed.
		line := appendWeight(append(appendEdge(buf[:0], e.Src+1, e.Dst+1, ' '), ' '), w)
		if _, err := bw.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeAdjacency(w io.Writer, el *graph.EdgeList) error {
	csr := graph.BuildCSR(el, graph.BuildOptions{})
	bw := bufio.NewWriterSize(w, 1<<20)
	if el.Weighted {
		fmt.Fprintln(bw, "WeightedAdjacencyGraph")
	} else {
		fmt.Fprintln(bw, "AdjacencyGraph")
	}
	fmt.Fprintln(bw, csr.NumVertices)
	fmt.Fprintln(bw, len(csr.Adj))
	var buf [32]byte
	for v := 0; v < csr.NumVertices; v++ {
		bw.Write(append(strconv.AppendInt(buf[:0], csr.Offsets[v], 10), '\n'))
	}
	for _, u := range csr.Adj {
		bw.Write(append(strconv.AppendUint(buf[:0], uint64(u), 10), '\n'))
	}
	for _, wt := range csr.Weights {
		bw.Write(append(appendWeight(buf[:0], wt), '\n'))
	}
	return bw.Flush()
}
