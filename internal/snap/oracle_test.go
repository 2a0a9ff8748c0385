// The pre-rewrite codec, kept as the oracle for the garbage-free one
// (as internal/graph/sort_test.go keeps the old sorter): referenceRead
// is the reader that built a string per field and grew everything by
// append; the reference writers are the fmt.Fprintf loops. The live
// codec must return identical results and error strings, and write
// identical bytes.
package snap

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"testing"

	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/xrand"
)

func referenceRead(r io.Reader) (*ReadResult, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	ids := make(map[int64]graph.VID)
	var orig []int64
	intern := func(raw int64) graph.VID {
		if v, ok := ids[raw]; ok {
			return v
		}
		v := graph.VID(len(orig))
		ids[raw] = v
		orig = append(orig, raw)
		return v
	}

	el := &graph.EdgeList{Directed: true}
	lineNo := 0
	weightedKnown := false
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		f0, f1, f2, nf, err := referenceSplitFields(line)
		if err != nil {
			return nil, fmt.Errorf("snap: line %d: %v", lineNo, err)
		}
		if nf == 0 {
			continue
		}
		if nf < 2 {
			return nil, fmt.Errorf("snap: line %d: expected at least 2 fields", lineNo)
		}
		src, err := strconv.ParseInt(f0, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("snap: line %d: bad source %q", lineNo, f0)
		}
		dst, err := strconv.ParseInt(f1, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("snap: line %d: bad destination %q", lineNo, f1)
		}
		if src < 0 || dst < 0 {
			return nil, fmt.Errorf("snap: line %d: negative vertex ID", lineNo)
		}
		e := graph.Edge{Src: intern(src), Dst: intern(dst)}
		hasW := nf >= 3
		if !weightedKnown {
			el.Weighted = hasW
			weightedKnown = true
		} else if hasW != el.Weighted {
			return nil, fmt.Errorf("snap: line %d: inconsistent weight columns", lineNo)
		}
		if hasW {
			w, err := strconv.ParseFloat(f2, 32)
			if err != nil {
				return nil, fmt.Errorf("snap: line %d: bad weight %q", lineNo, f2)
			}
			e.W = float32(w)
		}
		el.Edges = append(el.Edges, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("snap: line %d: %v", lineNo+1, err)
	}
	el.NumVertices = len(orig)
	if el.NumVertices == 0 {
		return nil, fmt.Errorf("snap: no edges found")
	}
	return &ReadResult{Graph: el, OrigID: orig}, nil
}

func referenceSplitFields(line []byte) (a, b, c string, n int, err error) {
	i := 0
	next := func() string {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r') {
			i++
		}
		start := i
		for i < len(line) && line[i] != ' ' && line[i] != '\t' && line[i] != '\r' {
			i++
		}
		return string(line[start:i])
	}
	a = next()
	if a == "" {
		return "", "", "", 0, nil
	}
	b = next()
	if b == "" {
		return a, "", "", 1, nil
	}
	c = next()
	if c == "" {
		return a, b, "", 2, nil
	}
	if rest := next(); rest != "" {
		return "", "", "", 0, fmt.Errorf("too many fields")
	}
	return a, b, c, 3, nil
}

func referenceWrite(w io.Writer, el *graph.EdgeList, name string) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	fmt.Fprintf(bw, "# %s\n# Nodes: %d Edges: %d\n", name, el.NumVertices, len(el.Edges))
	if el.Weighted {
		fmt.Fprintf(bw, "# SrcId\tDstId\tWeight\n")
	} else {
		fmt.Fprintf(bw, "# SrcId\tDstId\n")
	}
	for _, e := range el.Edges {
		if el.Weighted {
			fmt.Fprintf(bw, "%d\t%d\t%g\n", e.Src, e.Dst, e.W)
		} else {
			fmt.Fprintf(bw, "%d\t%d\n", e.Src, e.Dst)
		}
	}
	return bw.Flush()
}

func referenceWriteGraph500(w io.Writer, el *graph.EdgeList) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint32(hdr[0:], g500Magic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(el.NumVertices))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(el.Edges)))
	bw.Write(hdr)
	var buf [8]byte
	for _, e := range el.Edges {
		binary.LittleEndian.PutUint32(buf[0:], e.Src)
		binary.LittleEndian.PutUint32(buf[4:], e.Dst)
		bw.Write(buf[:])
	}
	return bw.Flush()
}

func referenceWriteGraphMat(w io.Writer, el *graph.EdgeList, name string) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n%% %s\n", name)
	fmt.Fprintf(bw, "%d %d %d\n", el.NumVertices, el.NumVertices, len(el.Edges))
	for _, e := range el.Edges {
		w := e.W
		if !el.Weighted {
			w = 1
		}
		fmt.Fprintf(bw, "%d %d %g\n", e.Src+1, e.Dst+1, w)
	}
	return bw.Flush()
}

func referenceWriteAdjacency(w io.Writer, el *graph.EdgeList) error {
	csr := graph.BuildCSR(el, graph.BuildOptions{})
	bw := bufio.NewWriterSize(w, 1<<20)
	if el.Weighted {
		fmt.Fprintln(bw, "WeightedAdjacencyGraph")
	} else {
		fmt.Fprintln(bw, "AdjacencyGraph")
	}
	fmt.Fprintln(bw, csr.NumVertices)
	fmt.Fprintln(bw, len(csr.Adj))
	for v := 0; v < csr.NumVertices; v++ {
		fmt.Fprintln(bw, csr.Offsets[v])
	}
	for _, u := range csr.Adj {
		fmt.Fprintln(bw, u)
	}
	if el.Weighted {
		for _, wt := range csr.Weights {
			fmt.Fprintln(bw, wt)
		}
	}
	return bw.Flush()
}

// diffRead compares what Read made of data with what referenceRead
// makes of it; "" means identical (weights by bit pattern, so NaN
// equals itself).
func diffRead(got *ReadResult, gotErr error, data []byte) string {
	want, wantErr := referenceRead(bytes.NewReader(data))
	return diffResults(got, gotErr, want, wantErr)
}

// diffResults is diffRead against a reference result already in hand.
func diffResults(got *ReadResult, gotErr error, want *ReadResult, wantErr error) string {
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			return fmt.Sprintf("error %v, reference reader says %v", gotErr, wantErr)
		}
		return ""
	}
	g, w := got.Graph, want.Graph
	sameEdge := func(a, b graph.Edge) bool {
		return a.Src == b.Src && a.Dst == b.Dst && math.Float32bits(a.W) == math.Float32bits(b.W)
	}
	switch {
	case g.NumVertices != w.NumVertices || g.Weighted != w.Weighted || g.Directed != w.Directed:
		return fmt.Sprintf("graph shape (%d, %v, %v), reference reader says (%d, %v, %v)",
			g.NumVertices, g.Weighted, g.Directed, w.NumVertices, w.Weighted, w.Directed)
	case !slices.EqualFunc(g.Edges, w.Edges, sameEdge):
		return fmt.Sprintf("edges %v, reference reader says %v", g.Edges, w.Edges)
	case !slices.Equal(got.OrigID, want.OrigID):
		return fmt.Sprintf("original IDs %v, reference reader says %v", got.OrigID, want.OrigID)
	}
	return ""
}

// roundTripInput is the edge list TestRoundTripProperty draws for seed.
func roundTripInput(seed uint64) *graph.EdgeList {
	r := xrand.New(seed)
	el := &graph.EdgeList{NumVertices: 20, Weighted: true}
	for i := 0; i < 50; i++ {
		el.Edges = append(el.Edges, graph.Edge{
			Src: graph.VID(r.Intn(20)),
			Dst: graph.VID(r.Intn(20)),
			W:   float32(int(r.Float32()*100)+1) / 128, // exactly representable
		})
	}
	return el
}

func TestReadMatchesReference(t *testing.T) {
	var inputs [][]byte
	for seed := uint64(0); seed < 20; seed++ {
		var buf bytes.Buffer
		if err := Write(&buf, roundTripInput(seed), "prop"); err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, buf.Bytes())
	}
	for _, tc := range hostileInputs {
		inputs = append(inputs, []byte(tc.in))
	}
	inputs = append(inputs, fuzzReadSeeds...)
	for _, in := range lyingHeaders {
		inputs = append(inputs, []byte(in))
	}
	inputs = append(inputs, blockInputs...)
	eachReadBlock(t, func(t *testing.T) {
		for _, in := range inputs {
			got, err := Read(bytes.NewReader(in))
			if msg := diffRead(got, err, in); msg != "" {
				t.Errorf("input %.60q: %s", in, msg)
			}
		}
	})
}

// codecWeights exercise every shape %g takes for a float32: integers,
// fractions, both exponent signs, the largest and smallest magnitudes,
// both zeros, and the values that print as words.
var codecWeights = []float32{
	1, 0.5, 1e-7, 3.4e38, math.MaxFloat32, math.SmallestNonzeroFloat32, 1e-40,
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	0, float32(math.Copysign(0, -1)), -2.5, 1e6, 123456.79, 1e20, 1e21, 16777216, 0.0001, 0.00001,
}

// codecEdgeList carries every codecWeights value and 500 random
// weights on endpoints spread over [0, n).
func codecEdgeList(n int, weighted bool) *graph.EdgeList {
	r := xrand.New(5)
	el := &graph.EdgeList{NumVertices: n, Weighted: weighted}
	for i := 0; i < len(codecWeights)+500; i++ {
		e := graph.Edge{Src: graph.VID(r.Intn(n)), Dst: graph.VID(r.Intn(n)), W: r.Float32()}
		if i < len(codecWeights) {
			e.W = codecWeights[i]
		}
		el.Edges = append(el.Edges, e)
	}
	return el
}

func TestWritersMatchReference(t *testing.T) {
	writers := []struct {
		name      string
		n         int // writeAdjacency builds a CSR: few vertices
		got, want func(io.Writer, *graph.EdgeList) error
	}{
		{"Write", math.MaxUint32,
			func(w io.Writer, el *graph.EdgeList) error { return Write(w, el, "t") },
			func(w io.Writer, el *graph.EdgeList) error { return referenceWrite(w, el, "t") }},
		{"writeGraphMat", math.MaxUint32,
			func(w io.Writer, el *graph.EdgeList) error { return writeGraphMat(w, el, "t") },
			func(w io.Writer, el *graph.EdgeList) error { return referenceWriteGraphMat(w, el, "t") }},
		{"writeAdjacency", 64, writeAdjacency, referenceWriteAdjacency},
	}
	for _, wr := range writers {
		for _, weighted := range []bool{true, false} {
			el := codecEdgeList(wr.n, weighted)
			var got, want bytes.Buffer
			if err := wr.got(&got, el); err != nil {
				t.Fatal(err)
			}
			if err := wr.want(&want, el); err != nil {
				t.Fatal(err)
			}
			gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want.Bytes(), []byte("\n"))
			for i := range wl {
				if i >= len(gl) || !bytes.Equal(gl[i], wl[i]) {
					t.Fatalf("%s (weighted %v): line %d differs from the fmt writer's %q", wr.name, weighted, i+1, wl[i])
				}
			}
			if len(gl) != len(wl) {
				t.Fatalf("%s (weighted %v): %d lines, the fmt writer has %d", wr.name, weighted, len(gl), len(wl))
			}
		}
	}
}
