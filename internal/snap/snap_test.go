package snap

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/xrand"
)

func TestReadBasic(t *testing.T) {
	const in = `# comment line
# Nodes: 4 Edges: 3
0	1
1	2
0 3
`
	res, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	el := res.Graph
	if el.NumVertices != 4 {
		t.Errorf("vertices = %d, want 4", el.NumVertices)
	}
	if len(el.Edges) != 3 {
		t.Errorf("edges = %d, want 3", len(el.Edges))
	}
	if el.Weighted {
		t.Error("unweighted file read as weighted")
	}
}

func TestReadWeighted(t *testing.T) {
	const in = "0 1 0.5\n1 2 0.25\n"
	res, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Graph.Weighted {
		t.Fatal("weighted file read as unweighted")
	}
	if res.Graph.Edges[0].W != 0.5 {
		t.Errorf("weight = %v, want 0.5", res.Graph.Edges[0].W)
	}
}

func TestReadDensifiesSparseIDs(t *testing.T) {
	const in = "100 900\n900 42\n"
	res, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.NumVertices != 3 {
		t.Errorf("vertices = %d, want 3", res.Graph.NumVertices)
	}
	// Mapping preserved.
	want := map[graph.VID]int64{0: 100, 1: 900, 2: 42}
	for dense, orig := range want {
		if res.OrigID[dense] != orig {
			t.Errorf("OrigID[%d] = %d, want %d", dense, res.OrigID[dense], orig)
		}
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"one field":            "5\n",
		"bad src":              "x 1\n",
		"bad dst":              "1 x\n",
		"bad weight":           "1 2 zap\n",
		"negative":             "-1 2\n",
		"inconsistent weights": "0 1 0.5\n1 2\n",
		"too many fields":      "1 2 3 4\n",
		"empty":                "# nothing\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: error expected", name)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	el := &graph.EdgeList{
		NumVertices: 5,
		Edges:       []graph.Edge{{Src: 0, Dst: 1, W: 0.5}, {Src: 1, Dst: 2, W: 0.25}, {Src: 4, Dst: 0, W: 1}},
		Weighted:    true,
		Directed:    true,
	}
	var buf bytes.Buffer
	if err := Write(&buf, el, "test"); err != nil {
		t.Fatal(err)
	}
	res, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Graph
	if len(got.Edges) != len(el.Edges) {
		t.Fatalf("edges = %d, want %d", len(got.Edges), len(el.Edges))
	}
	for i := range el.Edges {
		// IDs appear in first-seen order: 0,1,2,4 -> 0,1,2,3
		if got.Edges[i].W != el.Edges[i].W {
			t.Errorf("edge %d weight %v, want %v", i, got.Edges[i].W, el.Edges[i].W)
		}
	}
	if got.NumVertices != 4 { // vertex 3 has no edges, so it vanishes
		t.Errorf("round-trip vertices = %d, want 4", got.NumVertices)
	}
}

func TestGraph500RoundTrip(t *testing.T) {
	r := xrand.New(3)
	el := &graph.EdgeList{NumVertices: 100}
	for i := 0; i < 500; i++ {
		el.Edges = append(el.Edges, graph.Edge{Src: graph.VID(r.Intn(100)), Dst: graph.VID(r.Intn(100))})
	}
	var buf bytes.Buffer
	if err := WriteFormat(&buf, el, FormatGraph500, "t"); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGraph500(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices != el.NumVertices || len(got.Edges) != len(el.Edges) {
		t.Fatalf("sizes differ: %d/%d vs %d/%d", got.NumVertices, len(got.Edges), el.NumVertices, len(el.Edges))
	}
	for i := range el.Edges {
		if got.Edges[i].Src != el.Edges[i].Src || got.Edges[i].Dst != el.Edges[i].Dst {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestReadGraph500Garbage(t *testing.T) {
	if _, err := ReadGraph500(strings.NewReader("not binary")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestGraphMatFormat(t *testing.T) {
	el := &graph.EdgeList{
		NumVertices: 3,
		Edges:       []graph.Edge{{Src: 0, Dst: 1, W: 0.5}},
		Weighted:    true,
	}
	var buf bytes.Buffer
	if err := WriteFormat(&buf, el, FormatGraphMat, "t"); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, "MatrixMarket") {
		t.Error("missing MatrixMarket header")
	}
	if !strings.Contains(s, "1 2 0.5") {
		t.Errorf("expected 1-indexed edge, got:\n%s", s)
	}
}

func TestAdjacencyFormat(t *testing.T) {
	el := &graph.EdgeList{
		NumVertices: 3,
		Edges:       []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 2}},
	}
	var buf bytes.Buffer
	if err := WriteFormat(&buf, el, FormatAdjacency, "t"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "AdjacencyGraph" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "3" || lines[2] != "3" {
		t.Errorf("counts = %q %q", lines[1], lines[2])
	}
}

func TestWriteFormatUnknown(t *testing.T) {
	el := &graph.EdgeList{NumVertices: 1, Edges: []graph.Edge{{Src: 0, Dst: 0}}}
	if err := WriteFormat(&bytes.Buffer{}, el, "bogus", "t"); err == nil {
		t.Error("unknown format accepted")
	}
}

// Property: any weighted random edge list survives a SNAP round trip
// with the same edge multiset (modulo ID densification order, which is
// first-seen and deterministic).
func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		el := roundTripInput(seed)
		var buf bytes.Buffer
		if err := Write(&buf, el, "prop"); err != nil {
			return false
		}
		res, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(res.Graph.Edges) != len(el.Edges) {
			return false
		}
		for i := range el.Edges {
			// Densified IDs must map back to the written ones.
			g := res.Graph.Edges[i]
			if res.OrigID[g.Src] != int64(el.Edges[i].Src) ||
				res.OrigID[g.Dst] != int64(el.Edges[i].Dst) ||
				g.W != el.Edges[i].W {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// lyingHeaders are inputs whose size comment is wrong, late or not a
// number: each must parse as if the comment were not there.
var lyingHeaders = []string{
	"# Nodes: 1000000000000000 Edges: 1000000000000000\n0 1\n",
	"# Nodes: 1e15 Edges: 1e15\n0 1\n",
	"0 1\n# Nodes: 1000000000000000 Edges: 1000000000000000\n1 2\n",
	"# Nodes: 1 Edges: 1\n0 1\n1 2\n2 3 \n3 4\n",
	"# Nodes: 2 Edges: 1\n# Nodes: 999999999999 Edges: 999999999999\n7 7\n",
	"# Edges: 1000000000000000\n# Nodes: -4 Edges:\n0 1 0.5\n",
}

// allocatedBy returns the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// A size header is a hint: whatever it claims, the result is the
// reference reader's and the allocation stays O(input) -- a fixed
// amount for a reader that cannot tell its length.
func TestReadLyingHeader(t *testing.T) {
	for _, in := range lyingHeaders {
		for _, sized := range []bool{true, false} {
			var r io.Reader = strings.NewReader(in)
			budget := uint64(128<<10 + 64*len(in)) // scanner buffer + per-byte share
			if !sized {
				r = struct{ io.Reader }{r}
				budget = 4 << 20
			}
			var res *ReadResult
			var err error
			if got := allocatedBy(func() { res, err = Read(r) }); got > budget {
				t.Errorf("%q (sized %v): allocated %d bytes, budget %d", in, sized, got, budget)
			}
			if msg := diffRead(res, err, []byte(in)); msg != "" {
				t.Errorf("%q (sized %v): %s", in, sized, msg)
			}
		}
	}
}

// allocSlack is how far two allocation counts that should be equal may
// differ: under -race, fmt's sync.Pool drops objects at random.
const allocSlack = 8

// benchEdgeList is the codec benchmarks' input: m random edges on 1000
// vertices.
func benchEdgeList(m int, weighted bool) *graph.EdgeList {
	r := xrand.New(1)
	el := &graph.EdgeList{NumVertices: 1000, Weighted: weighted}
	for i := 0; i < m; i++ {
		el.Edges = append(el.Edges, graph.Edge{Src: graph.VID(r.Intn(1000)), Dst: graph.VID(r.Intn(1000)), W: r.Float32()})
	}
	return el
}

// With a truthful header Read allocates per file, not per line: the
// allocation count does not depend on the edge count, and the bytes
// stay within 1.5x of what the result holds.
func TestReadAllocBudget(t *testing.T) {
	read := func(m int) (allocs float64, allocated, held uint64) {
		var buf bytes.Buffer
		if err := Write(&buf, benchEdgeList(m, true), "budget"); err != nil {
			t.Fatal(err)
		}
		var res *ReadResult
		run := func() {
			var err error
			if res, err = Read(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(5, run)
		allocated = allocatedBy(run)
		return allocs, allocated, uint64(12*len(res.Graph.Edges) + 8*len(res.OrigID))
	}
	small, _, _ := read(10000)
	large, allocated, held := read(100000)
	if large > small+allocSlack {
		t.Errorf("Read makes %.0f allocations for 10000 edges and %.0f for 100000", small, large)
	}
	if allocated > held*3/2 {
		t.Errorf("Read allocated %d bytes for a result holding %d", allocated, held)
	}
}

// The text writers format into one buffer: no allocation per line.
func TestWriteAllocFree(t *testing.T) {
	for _, f := range []Format{FormatSNAP, FormatGraphMat, FormatAdjacency} {
		for _, weighted := range []bool{false, true} {
			allocs := func(m int) float64 {
				el := benchEdgeList(m, weighted)
				return testing.AllocsPerRun(5, func() {
					if err := WriteFormat(io.Discard, el, f, "alloc"); err != nil {
						t.Fatal(err)
					}
				})
			}
			if small, large := allocs(5000), allocs(50000); large > small+allocSlack {
				t.Errorf("%s (weighted %v): %.0f allocations for 5000 edges, %.0f for 50000", f, weighted, small, large)
			}
		}
	}
}

// g500File lays out a graph500-bin file: header, then (src, dst) pairs.
func g500File(magic, n uint32, m uint64, endpoints ...uint32) []byte {
	b := binary.LittleEndian.AppendUint32(nil, magic)
	b = binary.LittleEndian.AppendUint32(b, n)
	b = binary.LittleEndian.AppendUint64(b, m)
	for _, v := range endpoints {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

func TestReadGraph500Hostile(t *testing.T) {
	cases := []struct {
		name    string
		in      []byte
		wantSub string // "" means the input must parse cleanly
	}{
		{"empty", nil, "graph500 header"},
		{"short header", g500File(g500Magic, 4, 1)[:12], "graph500 header"},
		{"wrong magic", g500File(0xdeadbeef, 4, 0), "not a graph500"},
		{"edge count 1<<62", g500File(g500Magic, 4, 1<<62), "graph500 edge 0"},
		{"edge count max", g500File(g500Magic, 4, 1<<64-1, 0, 1), "graph500 edge 1"},
		{"large count small file", g500File(g500Magic, 4, 1<<30, 0, 1, 2, 3), "graph500 edge 2"},
		{"half an edge", g500File(g500Magic, 4, 2, 0, 1, 2), "graph500 edge 1"},
		{"no vertices", g500File(g500Magic, 0, 0), "no vertices"},
		{"source out of range", g500File(g500Magic, 4, 1, 4, 0), "graph500 edge 0"},
		{"destination out of range", g500File(g500Magic, 4, 2, 0, 1, 3, 1<<32-1), "graph500 edge 1"},
		{"no edges", g500File(g500Magic, 4, 0), ""},
		{"trailing bytes ignored", g500File(g500Magic, 4, 1, 3, 0, 9, 9), ""},
	}
	for _, tc := range cases {
		for _, sized := range []bool{true, false} {
			var r io.Reader = bytes.NewReader(tc.in)
			if !sized {
				r = struct{ io.Reader }{r}
			}
			var el *graph.EdgeList
			var err error
			if got := allocatedBy(func() { el, err = ReadGraph500(r) }); got > 1<<20 {
				t.Errorf("%s (sized %v): allocated %d bytes for a %d-byte file", tc.name, sized, got, len(tc.in))
			}
			switch {
			case tc.wantSub == "" && err != nil:
				t.Errorf("%s: want clean parse, got %v", tc.name, err)
			case tc.wantSub == "" && el.NumVertices != 4:
				t.Errorf("%s: %d vertices, want 4", tc.name, el.NumVertices)
			case tc.wantSub != "" && err == nil:
				t.Errorf("%s: parsed, want error containing %q", tc.name, tc.wantSub)
			case tc.wantSub != "" && (!strings.HasPrefix(err.Error(), "snap: ") || !strings.Contains(err.Error(), tc.wantSub)):
				t.Errorf("%s: error %q, want snap: ... %q", tc.name, err, tc.wantSub)
			}
		}
	}
}

func BenchmarkRead(b *testing.B) {
	var buf bytes.Buffer
	Write(&buf, benchEdgeList(50000, false), "bench")
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWrite reports MB/s of SNAP text produced (weighted, as the
// Kronecker datasets are).
func BenchmarkWrite(b *testing.B) {
	el := benchEdgeList(50000, true)
	var buf bytes.Buffer
	Write(&buf, el, "bench")
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Write(io.Discard, el, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}
