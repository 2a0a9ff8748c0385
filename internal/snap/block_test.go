// Block-boundary and worker-count walls for the parallel codec: Read
// must equal referenceRead (results and error strings) however its
// input is cut into blocks and whatever reader delivers it, and every
// writer's bytes must not depend on GOMAXPROCS.
package snap

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/kronecker"
)

// withReadBlock runs f with Read taking n bytes at a time.
func withReadBlock(n int, f func()) {
	defer func(old int) { readBlock = old }(readBlock)
	readBlock = n
	f()
}

// fuzzBlock is the block size FuzzRead runs every input at besides the
// default: small enough that nearly every line ends a block.
const fuzzBlock = 3

// eachReadBlock runs f at the default block size and at sizes small
// enough that every line boundary of a short input falls between two
// blocks, or inside one span of several.
func eachReadBlock(t *testing.T, f func(t *testing.T)) {
	for _, n := range []int{readBlock, 1, 2, fuzzBlock, 7, 64} {
		t.Run(fmt.Sprintf("block=%d", n), func(t *testing.T) { withReadBlock(n, func() { f(t) }) })
	}
}

// blockInputs put each kind of state Read carries from block to block
// (and span to span) across a boundary at the small block sizes.
var blockInputs = func() [][]byte {
	var many strings.Builder
	for i := range 200 {
		fmt.Fprintf(&many, "%d %d %d.5\n", i*7919%1000, i*104729%1000, i)
	}
	data := many.String()
	return [][]byte{
		[]byte("123456789 987654321\n12 34\n5 6\n"),                            // a line split across blocks
		[]byte("0 1\r\n2 3\r\n\r\n4 5\r\n"),                                    // "\r\n" split across blocks
		[]byte("0 1\n# Nodes: 2 Edges: 1\n#\n1 2\n \t\n2 3\n"),                 // comments and blank lines after data
		[]byte("# Nodes: 3 Edges: 2\n# c\n\n0 1 0.5\n1 2 0.25\n"),              // the header in an earlier block
		[]byte(data + "7 8\n"),                                                 // weighted by line 1, inconsistent 200 lines on
		[]byte(data[:len(data)/2] + "7 8 9 10\n" + data),                       // a later block's error
		[]byte(data + "x 1\n" + data[:40] + "1 2\n"),                           // a bad line, then an inconsistent one
		[]byte("0 1\n1 2\n2 3 zap\n"),                                          // inconsistent and bad weight on one line
		[]byte("0 1 0.5\n1 2 0.5\n2 3 zap\n"),                                  // bad weight alone
		[]byte("0 1\n1 2\n2 3\n4\n"),                                           // an error on the last line, no weights
		[]byte("4294967295 4294967296\n1 4294967295\n9223372036854775807 1\n"), // IDs past the table and past a uint32
		[]byte("1 2\n5"),      // an unterminated bad last line
		[]byte("\n\n\n\n0 0"), // an unterminated good one
	}
}()

// longLine is a valid SNAP line ("0 1" padded with blanks) of n bytes
// ending in eol.
func longLine(n int, eol string) string {
	return "0 1" + strings.Repeat(" ", n-3-len(eol)) + eol
}

// The 1 MiB line limit is bufio.Scanner's, at every block size: a line
// of 1<<20 bytes with its '\n' passes, one byte more fails as
// bufio.ErrTooLong with the scanner's line number, and so does an
// unterminated last line of 1<<20 bytes.
func TestReadLongLines(t *testing.T) {
	var inputs []string
	for _, n := range []int{maxLine - 1, maxLine, maxLine + 1} {
		for _, eol := range []string{"\n", "\r\n", ""} {
			inputs = append(inputs, longLine(n, eol), "5 6\n"+longLine(n, eol)+"1 2\n")
		}
	}
	for _, n := range []int{readBlock, 1, 4096} {
		withReadBlock(n, func() {
			for _, in := range inputs {
				got, err := Read(strings.NewReader(in))
				if msg := diffRead(got, err, []byte(in)); msg != "" {
					t.Errorf("block %d, %d-byte input ending %q: %s", n, len(in), in[len(in)-min(len(in), 6):], msg)
				}
			}
		})
	}
}

// Whatever the reader does -- deliver a byte at a time, half of what is
// asked, the last bytes with io.EOF, or fail part way -- Read returns
// what bufio.Scanner's reader returned on the same stream.
func TestReadReaderShapes(t *testing.T) {
	boom := errors.New("boom")
	shapes := map[string]func([]byte) io.Reader{
		"one byte":  func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) },
		"half":      func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) },
		"data+EOF":  func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) },
		"unsized":   func(b []byte) io.Reader { return struct{ io.Reader }{bytes.NewReader(b)} },
		"then fail": func(b []byte) io.Reader { return io.MultiReader(bytes.NewReader(b), iotest.ErrReader(boom)) },
	}
	inputs := append([][]byte{[]byte("0 1\n1 2"), []byte("x 1\n"), []byte("0 1\n\n")}, blockInputs...)
	eachReadBlock(t, func(t *testing.T) {
		for name, shape := range shapes {
			for _, in := range inputs {
				got, err := Read(shape(in))
				want, wantErr := referenceRead(shape(in))
				if msg := diffResults(got, err, want, wantErr); msg != "" {
					t.Errorf("%s reader, input %.40q: %s", name, in, msg)
				}
			}
		}
	})
}

// Read and every WriteFormat target give the same result and bytes at
// 1, 2, 4 and 7 workers: kron-12 written to a file and read back
// through the *os.File (the Stat-sized path `epg homogenize` takes)
// and through a wrapper that hides the size, at the default block and
// at a block small enough for every worker to get spans.
func TestCodecIndependentOfWorkerCount(t *testing.T) {
	el := kronecker.Generate(kronecker.Params{Scale: 12, Seed: 3})
	refs := map[Format]func(io.Writer) error{
		FormatSNAP:      func(w io.Writer) error { return referenceWrite(w, el, "kron") },
		FormatGraph500:  func(w io.Writer) error { return referenceWriteGraph500(w, el) },
		FormatGraphMat:  func(w io.Writer) error { return referenceWriteGraphMat(w, el, "kron") },
		FormatAdjacency: func(w io.Writer) error { return referenceWriteAdjacency(w, el) },
	}
	want := map[Format][]byte{}
	for f, ref := range refs {
		var buf bytes.Buffer
		if err := ref(&buf); err != nil {
			t.Fatal(err)
		}
		want[f] = buf.Bytes()
	}
	path := filepath.Join(t.TempDir(), "kron.snap")
	if err := os.WriteFile(path, want[FormatSNAP], 0o644); err != nil {
		t.Fatal(err)
	}
	wantRead, wantErr := referenceRead(bytes.NewReader(want[FormatSNAP]))
	if wantErr != nil {
		t.Fatal(wantErr)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4, 7} {
		runtime.GOMAXPROCS(procs)
		for _, f := range AllFormats {
			var buf bytes.Buffer
			if err := WriteFormat(&buf, el, f, "kron"); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want[f]) {
				t.Errorf("GOMAXPROCS %d: %s differs from the reference writer's %d bytes", procs, f, len(want[f]))
			}
		}
		for _, n := range []int{readBlock, 4096} {
			for _, sized := range []bool{true, false} {
				file, err := os.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				var r io.Reader = file
				if !sized {
					r = struct{ io.Reader }{file}
				}
				var got *ReadResult
				withReadBlock(n, func() { got, err = Read(r) })
				file.Close()
				if msg := diffResults(got, err, wantRead, nil); msg != "" {
					t.Errorf("GOMAXPROCS %d, block %d, sized %v: %.200s", procs, n, sized, msg)
				}
			}
		}
	}
}

// failingWriter accepts limit bytes, then fails every write.
type failingWriter struct{ limit int }

var errFull = errors.New("disk full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.limit {
		n := w.limit
		w.limit = 0
		return n, errFull
	}
	w.limit -= len(p)
	return len(p), nil
}

// A failing sink stops the ordered writer with its error at every
// worker count, whichever block it fails on: no worker is left blocked.
func TestWriteOrderedStopsAtFirstError(t *testing.T) {
	el := benchEdgeList(50000, true)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		for _, limit := range []int{0, 100, 200 << 10, 600 << 10} {
			if err := Write(&failingWriter{limit}, el, "full"); err != errFull {
				t.Errorf("GOMAXPROCS %d, sink full after %d bytes: error %v, want %v", procs, limit, err, errFull)
			}
		}
	}
	if err := Write(&failingWriter{1 << 30}, &graph.EdgeList{}, "empty"); err != nil {
		t.Errorf("empty edge list: %v", err)
	}
}
