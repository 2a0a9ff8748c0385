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
//
// Both directions run on parallel.Default() and their output does not
// depend on the worker count. Read takes its input in line-aligned
// blocks: the lines of a block are parsed on the pool into the tail of
// the edge list, then interned serially in line order, so dense IDs
// are assigned by first appearance and the first bad line in file
// order is the one reported. Besides its result Read holds one block
// buffer (at most 1 MiB, the longest line it accepts), an intern table
// of 4 bytes per raw ID below the input's byte length (grown only to
// the largest ID seen), and a map for larger IDs. The writers format
// fixed-size blocks into a ring of GOMAXPROCS+1 buffers and write them
// in order (writeOrdered).
package snap

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"

	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/parallel"
)

// ReadResult carries the parsed graph plus the original-ID mapping.
type ReadResult struct {
	Graph *graph.EdgeList
	// OrigID maps dense vertex ID -> the ID that appeared in the
	// file, so results can be reported in the dataset's own terms.
	OrigID []int64
}

// readBlock is how many bytes Read takes from its input at a time. A
// variable so tests can shrink it until every line boundary falls
// between blocks.
var readBlock = 256 << 10

// maxLine bounds a line, '\n' included: a longer one fails with
// bufio.ErrTooLong, as bufio.Scanner's token limit did.
const maxLine = 1 << 20

// bigID stands, in a parsed edge, for a raw ID that does not fit below
// it; the ID itself waits on its span's big list.
const bigID = math.MaxUint32

// Read parses a SNAP-format stream. Weighted is inferred: if any data
// line has a third column, all lines must have one. The edge list and
// the ID mapping are sized once, from the "# Nodes: N Edges: M" comment
// SNAP files (and Write) carry ahead of the data.
func Read(r io.Reader) (*ReadResult, error) {
	size := inputBytes(r)
	workers := max(1, min(runtime.GOMAXPROCS(0), parallel.NumChunks(int(size), max(readBlock/8, 1))))
	rd := &reader{
		r:     r,
		limit: size / 4, // the shortest data line, "0 1\n", is 4 bytes
		bound: size,
		buf:   make([]byte, min(int64(readBlock), size+1, maxLine)),
		el:    &graph.EdgeList{Directed: true},
		spans: make([]span, 0, 4*workers+1),
		jobs:  make(chan int, 4*workers+1),
	}
	var err error
	parallel.Default().Run(workers, func(worker int) {
		if worker > 0 {
			for k := range rd.jobs {
				rd.parse(k)
			}
			return
		}
		defer close(rd.jobs)
		err = rd.read()
	})
	if err != nil {
		return nil, err
	}
	rd.el.NumVertices = len(rd.orig)
	if rd.el.NumVertices == 0 {
		return nil, fmt.Errorf("snap: no edges found")
	}
	return &ReadResult{Graph: rd.el, OrigID: rd.orig}, nil
}

// reader is one Read call's state. Worker 0 runs the block loop (read)
// and everything serial; the other workers only parse spans.
type reader struct {
	r     io.Reader
	limit int64 // the most edges the input can hold
	bound int64 // raw IDs below it intern through table
	buf   []byte
	lines int // lines delivered so far

	el           *graph.EdgeList
	nodes, edges int64 // the header's claim, until the first data line
	started      bool  // the first data line is seen and the result sized
	weightKnown  bool
	table        []graph.VID // raw ID -> dense ID + 1; 0 is unseen
	ids          map[int64]graph.VID
	orig         []int64

	spans []span
	tail  []graph.Edge // the block's parse slots, past the edge list's end
	jobs  chan int
	wg    sync.WaitGroup
}

// span is a line-aligned piece of a block, parsed by one worker.
type span struct {
	data    []byte
	line    int // number of its first line
	off     int // its first slot in the block's tail
	n       int // edges parsed
	first   int // number of its first data line; 0 when none
	firstW  bool
	flip    int // first data line whose weight column differs from first's
	errLine int
	err     error
	big     []int64
}

// read fills the buffer, cuts it after its last '\n', parses those
// whole lines and carries the partial one to the next fill. Lines the
// buffer delivered come before a read error, as with bufio.Scanner.
func (rd *reader) read() error {
	end, empty := 0, 0
	var rerr error
	for {
		for end < len(rd.buf) && rerr == nil {
			n, err := rd.r.Read(rd.buf[end:])
			end, rerr = end+n, err
			if n > 0 {
				empty = 0
			} else if empty++; empty == 100 && rerr == nil {
				rerr = io.ErrNoProgress // bufio.Scanner's limit too
			}
		}
		cut := bytes.LastIndexByte(rd.buf[:end], '\n') + 1
		if rerr != nil {
			cut = end // the last line needs no '\n'
		} else if cut == 0 {
			if len(rd.buf) >= maxLine {
				return fmt.Errorf("snap: line %d: %v", rd.lines+1, bufio.ErrTooLong)
			}
			rd.buf = append(rd.buf, make([]byte, min(len(rd.buf), maxLine-len(rd.buf)))...)
			continue
		}
		if err := rd.block(rd.buf[:cut]); err != nil {
			return err
		}
		end = copy(rd.buf, rd.buf[cut:end])
		if rerr == io.EOF {
			return nil
		} else if rerr != nil {
			return fmt.Errorf("snap: line %d: %v", rd.lines+1, rerr)
		}
	}
}

// block parses whole lines: those ahead of the first data line
// serially (they may hold the size header), the rest as spans on the
// pool, whose edges are then interned in line order.
func (rd *reader) block(data []byte) error {
	if !rd.started {
		if data = rd.prefix(data); len(data) == 0 {
			return nil
		}
	}
	rd.spans = rd.spans[:0]
	grain := max(1, (len(data)+cap(rd.spans)-2)/(cap(rd.spans)-1))
	line, slots := rd.lines+1, 0
	for lo := 0; lo < len(data); {
		hi := min(lo+grain, len(data))
		if i := bytes.IndexByte(data[hi-1:], '\n'); i >= 0 {
			hi += i
		} else {
			hi = len(data)
		}
		k := len(rd.spans)
		rd.spans = rd.spans[:k+1]
		s := &rd.spans[k]
		*s = span{data: data[lo:hi], line: line, off: slots, big: s.big[:0]}
		n := bytes.Count(s.data, []byte{'\n'})
		if data[hi-1] != '\n' {
			n++ // the input's last line
		}
		line, slots, lo = line+n, slots+n, hi
	}
	rd.lines = line - 1

	base := len(rd.el.Edges)
	rd.el.Edges = slices.Grow(rd.el.Edges, slots)
	rd.tail = rd.el.Edges[base : base+slots]
	rd.wg.Add(len(rd.spans))
	for k := range rd.spans {
		rd.jobs <- k
	}
	for more := true; more; {
		select {
		case k := <-rd.jobs:
			rd.parse(k)
		default:
			more = false
		}
	}
	rd.wg.Wait()

	for k := range rd.spans {
		s := &rd.spans[k]
		if err := rd.settle(s); err != nil {
			return err
		}
		big := s.big
		for _, e := range rd.tail[s.off : s.off+s.n] {
			src, dst := int64(e.Src), int64(e.Dst)
			if e.Src == bigID {
				src, big = big[0], big[1:]
			}
			if e.Dst == bigID {
				dst, big = big[0], big[1:]
			}
			e.Src, e.Dst = rd.intern(src), rd.intern(dst)
			rd.el.Edges = append(rd.el.Edges, e) // never past the slot just read
		}
	}
	return nil
}

// prefix consumes the lines ahead of the first data line, reading the
// size header out of their comments, and returns the rest of data. At
// the first data line it sizes the result: a header is trusted only up
// to what the input can hold, so a lying one cannot allocate more than
// O(input).
func (rd *reader) prefix(data []byte) []byte {
	for len(data) > 0 {
		line, rest := data, []byte(nil)
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, rest = data[:i], data[i+1:]
		}
		if len(line) > 0 && line[0] == '#' {
			rd.nodes, rd.edges = headerSizes(line, rd.nodes, rd.edges)
		} else if f, _ := nextField(line, 0); len(f) != 0 {
			rd.started = true
			edges := min(rd.edges, rd.limit)
			rd.orig = make([]int64, 0, min(rd.nodes, 2*edges))
			rd.el.Edges = make([]graph.Edge, 0, edges)
			return data
		}
		rd.lines++
		data = rest
	}
	return data
}

// parse tokenises span k's lines into its slots of the block's tail,
// with raw IDs in the endpoints. It stops at the span's first error or
// weight-column change; which of those the file reports is settled in
// line order.
func (rd *reader) parse(k int) {
	defer rd.wg.Done()
	s := &rd.spans[k]
	fail := func(line int, format string, arg ...any) {
		s.errLine, s.err = line, fmt.Errorf("snap: line %d: "+format, append([]any{line}, arg...)...)
	}
	data := s.data
	for line := s.line; len(data) > 0; line++ {
		l := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			l, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if len(l) == 0 || l[0] == '#' {
			continue
		}
		f0, i := nextField(l, 0)
		if len(f0) == 0 {
			continue
		}
		f1, i := nextField(l, i)
		if len(f1) == 0 {
			fail(line, "expected at least 2 fields")
			return
		}
		f2, i := nextField(l, i)
		if rest, _ := nextField(l, i); len(rest) != 0 {
			fail(line, "too many fields")
			return
		}
		src, err := parseID(f0)
		if err != nil {
			fail(line, "bad source %q", f0)
			return
		}
		dst, err := parseID(f1)
		if err != nil {
			fail(line, "bad destination %q", f1)
			return
		}
		if src < 0 || dst < 0 {
			fail(line, "negative vertex ID")
			return
		}
		hasW := len(f2) != 0
		if s.first == 0 {
			s.first, s.firstW = line, hasW
		} else if hasW != s.firstW {
			s.flip = line
			return
		}
		e := graph.Edge{Src: s.raw(src), Dst: s.raw(dst)}
		if hasW {
			w, err := strconv.ParseFloat(string(f2), 32)
			if err != nil {
				fail(line, "bad weight %q", f2)
				return
			}
			e.W = float32(w)
		}
		rd.tail[s.off+s.n] = e
		s.n++
	}
}

// raw is id as an endpoint of a parsed edge.
func (s *span) raw(id int64) graph.VID {
	if id < bigID {
		return graph.VID(id)
	}
	s.big = append(s.big, id)
	return bigID
}

// settle returns the span's first error in line order, now that the
// file's first data line has set whether it is weighted: a weight
// column that differs from the file's is checked before the weight is
// parsed, so it wins a tie with "bad weight" on the same line.
func (rd *reader) settle(s *span) error {
	inc := s.flip
	if s.first != 0 && !rd.weightKnown {
		rd.el.Weighted, rd.weightKnown = s.firstW, true
	} else if s.first != 0 && s.firstW != rd.el.Weighted {
		inc = s.first
	}
	if inc != 0 && (s.err == nil || inc <= s.errLine) {
		return fmt.Errorf("snap: line %d: inconsistent weight columns", inc)
	}
	return s.err
}

// intern returns raw's dense ID, assigning the next one on first sight.
// Raw IDs below the bound index a table grown to the largest one seen;
// the rest go through a map.
func (rd *reader) intern(raw int64) graph.VID {
	v := graph.VID(len(rd.orig))
	if raw < rd.bound {
		if n := int64(len(rd.table)); raw >= n {
			rd.table = append(rd.table, make([]graph.VID, min(max(raw+1, 2*n), rd.bound)-n)...)
		}
		if d := rd.table[raw]; d != 0 {
			return d - 1
		}
		rd.table[raw] = v + 1
	} else {
		if d, ok := rd.ids[raw]; ok {
			return d
		}
		if rd.ids == nil {
			rd.ids = make(map[int64]graph.VID)
		}
		rd.ids[raw] = v
	}
	rd.orig = append(rd.orig, raw)
	return v
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
	head := fmt.Appendf(nil, "# %s\n# Nodes: %d Edges: %d\n", name, el.NumVertices, len(el.Edges))
	if el.Weighted {
		head = append(head, "# SrcId\tDstId\tWeight\n"...)
	} else {
		head = append(head, "# SrcId\tDstId\n"...)
	}
	return writeOrdered(w, head, len(el.Edges), func(dst []byte, i int) []byte {
		e := el.Edges[i]
		dst = appendEdge(dst, e.Src, e.Dst, '\t')
		if el.Weighted {
			dst = appendWeight(append(dst, '\t'), e.W)
		}
		return append(dst, '\n')
	})
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
