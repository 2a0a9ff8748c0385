// Package snap reads and writes graphs in the SNAP text format used by
// the Stanford Network Analysis Project datasets, and converts graphs
// into each engine's preferred on-disk representation (the paper's
// "dataset homogenization" phase).
//
// A SNAP file is one edge per line, endpoints separated by whitespace,
// with an optional third column holding the weight; lines starting
// with '#' are comments. Vertex IDs in the file may be arbitrary
// non-negative integers; the reader densifies them to [0, N) and
// records the mapping.
package snap

import (
	"bufio"
	"fmt"
	"io"
	"io/fs"
	"strconv"

	"github.com/hpcl-repro/epg/internal/graph"
)

// ReadResult carries the parsed graph plus the original-ID mapping.
type ReadResult struct {
	Graph *graph.EdgeList
	// OrigID maps dense vertex ID -> the ID that appeared in the
	// file, so results can be reported in the dataset's own terms.
	OrigID []int64
}

// Read parses a SNAP-format stream. Weighted is inferred: if any data
// line has a third column, all lines must have one. The edge list, the
// ID mapping and the intern map are sized once, from the "# Nodes: N
// Edges: M" comment SNAP files (and Write) carry ahead of the data.
func Read(r io.Reader) (*ReadResult, error) {
	limit := inputBytes(r) / 4 // the shortest data line, "0 1\n", is 4 bytes
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)

	var ids map[int64]graph.VID
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
	var nodes, edges int64 // the header's claim, until the first edge
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if line[0] == '#' {
			if ids == nil {
				nodes, edges = headerSizes(line, nodes, edges)
			}
			continue
		}
		f0, i := nextField(line, 0)
		if len(f0) == 0 {
			continue
		}
		f1, i := nextField(line, i)
		if len(f1) == 0 {
			return nil, fmt.Errorf("snap: line %d: expected at least 2 fields", lineNo)
		}
		f2, i := nextField(line, i)
		if rest, _ := nextField(line, i); len(rest) != 0 {
			return nil, fmt.Errorf("snap: line %d: too many fields", lineNo)
		}
		src, err := parseID(f0)
		if err != nil {
			return nil, fmt.Errorf("snap: line %d: bad source %q", lineNo, f0)
		}
		dst, err := parseID(f1)
		if err != nil {
			return nil, fmt.Errorf("snap: line %d: bad destination %q", lineNo, f1)
		}
		if src < 0 || dst < 0 {
			return nil, fmt.Errorf("snap: line %d: negative vertex ID", lineNo)
		}
		hasW := len(f2) != 0
		if ids == nil {
			// A header is trusted only up to what the input can hold,
			// so a lying one cannot allocate more than O(input).
			edges = min(edges, limit)
			nodes = min(nodes, 2*edges)
			ids = make(map[int64]graph.VID, nodes)
			orig = make([]int64, 0, nodes)
			el.Edges = make([]graph.Edge, 0, edges)
			el.Weighted = hasW
		} else if hasW != el.Weighted {
			return nil, fmt.Errorf("snap: line %d: inconsistent weight columns", lineNo)
		}
		e := graph.Edge{Src: intern(src), Dst: intern(dst)}
		if hasW {
			w, err := strconv.ParseFloat(string(f2), 32)
			if err != nil {
				return nil, fmt.Errorf("snap: line %d: bad weight %q", lineNo, f2)
			}
			e.W = float32(w)
		}
		el.Edges = append(el.Edges, e)
	}
	if err := sc.Err(); err != nil {
		// The scanner fails on the line AFTER the last one delivered —
		// e.g. a line longer than the 1 MiB token limit surfaces here
		// as bufio.ErrTooLong, bounding memory on hostile input.
		return nil, fmt.Errorf("snap: line %d: %v", lineNo+1, err)
	}
	el.NumVertices = len(orig)
	if el.NumVertices == 0 {
		return nil, fmt.Errorf("snap: no edges found")
	}
	return &ReadResult{Graph: el, OrigID: orig}, nil
}

// unsizedInputBytes stands in for the length of a reader that cannot
// tell it: what a size header may reserve ahead of such a stream.
const unsizedInputBytes = 64 << 10

// inputBytes returns how many bytes r can still deliver when it knows
// (an in-memory reader's Len, a file's Stat), and unsizedInputBytes
// otherwise.
func inputBytes(r io.Reader) int64 {
	switch r := r.(type) {
	case interface{ Len() int }:
		return int64(r.Len())
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			return fi.Size()
		}
	}
	return unsizedInputBytes
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' }

// nextField returns the whitespace-separated field of line that starts
// at or after i (empty when none is left) and the index just past it.
// The field aliases line: nothing is allocated per line.
func nextField(line []byte, i int) ([]byte, int) {
	for i < len(line) && isSpace(line[i]) {
		i++
	}
	start := i
	for i < len(line) && !isSpace(line[i]) {
		i++
	}
	return line[start:i], i
}

// parseID is strconv.ParseInt(string(b), 10, 64): a digit loop for the
// plain decimal IDs files hold, strconv itself (signs, overflow, junk)
// for everything else.
func parseID(b []byte) (int64, error) {
	if len(b) == 0 || len(b) > 18 { // 18 nines fit an int64
		return strconv.ParseInt(string(b), 10, 64)
	}
	var v int64
	for _, c := range b {
		if c -= '0'; c > 9 {
			return strconv.ParseInt(string(b), 10, 64)
		}
		v = v*10 + int64(c)
	}
	return v, nil
}

// headerSizes reads N and M out of a "# Nodes: N Edges: M" comment;
// a size the line does not state keeps the value passed in.
func headerSizes(line []byte, nodes, edges int64) (int64, int64) {
	var key []byte
	for f, i := nextField(line, 1); len(f) != 0; f, i = nextField(line, i) {
		if v, err := parseID(f); err == nil && v > 0 {
			switch string(key) {
			case "Nodes:":
				nodes = v
			case "Edges:":
				edges = v
			}
		}
		key = f
	}
	return nodes, edges
}

// Write emits the edge list in SNAP format. A header comment records
// the sizes, as the SNAP datasets do.
func Write(w io.Writer, el *graph.EdgeList, name string) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	fmt.Fprintf(bw, "# %s\n# Nodes: %d Edges: %d\n", name, el.NumVertices, len(el.Edges))
	if el.Weighted {
		fmt.Fprintf(bw, "# SrcId\tDstId\tWeight\n")
	} else {
		fmt.Fprintf(bw, "# SrcId\tDstId\n")
	}
	var buf [64]byte
	for _, e := range el.Edges {
		line := appendEdge(buf[:0], e.Src, e.Dst, '\t')
		if el.Weighted {
			line = appendWeight(append(line, '\t'), e.W)
		}
		if _, err := bw.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendEdge appends "src<sep>dst" as fmt's %d prints them.
func appendEdge(b []byte, src, dst graph.VID, sep byte) []byte {
	b = strconv.AppendUint(b, uint64(src), 10)
	b = append(b, sep)
	return strconv.AppendUint(b, uint64(dst), 10)
}

// appendWeight appends w as fmt's %g (and %v) print a float32.
func appendWeight(b []byte, w float32) []byte {
	return strconv.AppendFloat(b, float64(w), 'g', -1, 32)
}
