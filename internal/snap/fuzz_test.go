// Fuzz wall for the SNAP text parser: arbitrary byte streams — the
// things a corrupted download or a hostile dataset mirror can hand the
// homogenization phase — must produce either a valid graph or an error
// naming the offending line, and never a panic or unbounded
// allocation. The seed corpus runs in plain `go test`; `make fuzz` and
// CI run the target with a bounded -fuzztime.
package snap

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"github.com/hpcl-repro/epg/internal/graph"
)

// hostileInputs enumerates the known attack shapes with the exact
// failure each must produce; the fuzzer explores the space between
// them.
var hostileInputs = func() []hostileCase {
	hugeToken := strings.Repeat("9", 2<<20) // one 2 MiB line: over the scanner's token limit
	return []hostileCase{
		{"empty stream", "", "no edges found"},
		{"comments only", "# Nodes: 5 Edges: 0\n#\n", "no edges found"},
		{"truncated line one field", "0\n", "line 1: expected at least 2 fields"},
		{"truncated line trailing sep", "0 \n", "line 1: expected at least 2 fields"},
		{"negative source", "-1 2\n", "line 1: negative vertex ID"},
		{"negative destination", "0 -7\n", "line 1: negative vertex ID"},
		{"overflow source", "99999999999999999999 1\n", "line 1: bad source"},
		{"overflow destination", "1 18446744073709551616\n", "line 1: bad destination"},
		{"NUL in field", "0\x001 2\n", "line 1: bad source"},
		{"NUL as line", "\x00\n", "line 1: expected at least 2 fields"},
		{"non-numeric weight", "0 1 heavy\n", "line 1: bad weight"},
		{"weight NaN parses", "0 1 NaN\n", ""}, // strconv accepts NaN; graph layer owns semantics
		{"four fields", "0 1 2 3\n", "line 1: too many fields"},
		{"inconsistent weights", "0 1 0.5\n2 3\n", "line 2: inconsistent weight columns"},
		{"error names later line", "0 1\n0 2\nbogus 3\n", "line 3: bad source"},
		{"huge token bounded", hugeToken + " 1\n", "line 1:"},
		{"huge token after data", "0 1\n" + hugeToken + "\n", "line 2:"},
		{"crlf accepted", "0 1\r\n1 2\r\n", ""},
		{"tabs accepted", "0\t1\n", ""},
		{"no trailing newline", "0 1", ""},
	}
}()

type hostileCase struct {
	name    string
	in      string
	wantSub string // "" means the input must parse cleanly
}

func TestReadHostileInputs(t *testing.T) {
	eachReadBlock(t, func(t *testing.T) {
		for _, tc := range hostileInputs {
			t.Run(tc.name, func(t *testing.T) {
				res, err := Read(strings.NewReader(tc.in))
				if tc.wantSub == "" {
					if err != nil {
						t.Fatalf("want clean parse, got %v", err)
					}
					if res.Graph.NumVertices == 0 {
						t.Fatal("clean parse produced empty graph")
					}
					return
				}
				if err == nil {
					t.Fatalf("parsed hostile input, want error containing %q", tc.wantSub)
				}
				if !strings.Contains(err.Error(), tc.wantSub) {
					t.Errorf("error %q does not contain %q", err, tc.wantSub)
				}
			})
		}
	})
}

var fuzzReadSeeds = [][]byte{
	[]byte("0 1\n1 2\n"),
	[]byte("# comment\n3 4 0.5\n"),
	[]byte("0\t1\r\n"),
	[]byte("-1 2\n"),
	[]byte("99999999999999999999 1\n"),
	[]byte("0 1 2 3\n"),
	[]byte("0 1 0.5\n2 3\n"),
	{0, '1', ' ', '2', '\n'},
	bytes.Repeat([]byte("7 "), 100),
	[]byte("# Nodes: 2 Edges: 1000000000000000\n+5 -0 1e-7\n"),
	[]byte("5 6\n# Nodes: 9 Edges: 9\n6 7\n"),
}

// FuzzRead pins the no-panic/no-OOM contract and, when the input does
// parse, the structural invariants every downstream builder assumes:
// dense IDs in [0, N), a faithful OrigID mapping, and a consistent
// weight column. Every input also goes through the pre-rewrite reader
// (referenceRead): results and error strings must be identical, both
// at the default block size and at fuzzBlock, where nearly every line
// boundary falls between blocks.
func FuzzRead(f *testing.F) {
	for _, seed := range fuzzReadSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		withReadBlock(fuzzBlock, func() {
			res, err := Read(bytes.NewReader(data))
			if msg := diffRead(res, err, data); msg != "" {
				t.Fatalf("block %d: %s", fuzzBlock, msg)
			}
		})
		res, err := Read(bytes.NewReader(data))
		if msg := diffRead(res, err, data); msg != "" {
			t.Fatal(msg)
		}
		if err != nil {
			if !strings.HasPrefix(err.Error(), "snap: ") {
				t.Fatalf("error without package context: %q", err)
			}
			return
		}
		el := res.Graph
		if el.NumVertices == 0 || len(res.OrigID) != el.NumVertices {
			t.Fatalf("parsed graph has %d vertices, %d original IDs",
				el.NumVertices, len(res.OrigID))
		}
		seen := make(map[int64]bool, len(res.OrigID))
		for _, id := range res.OrigID {
			if id < 0 {
				t.Fatalf("negative original ID %d survived parsing", id)
			}
			if seen[id] {
				t.Fatalf("original ID %d interned twice", id)
			}
			seen[id] = true
		}
		for _, e := range el.Edges {
			if int(e.Src) >= el.NumVertices || int(e.Dst) >= el.NumVertices {
				t.Fatalf("edge (%d,%d) outside dense range [0,%d)", e.Src, e.Dst, el.NumVertices)
			}
			if !el.Weighted && e.W != 0 {
				t.Fatalf("unweighted graph carries weight %v", e.W)
			}
		}
	})
}

// FuzzReadGraph500 pins the same contract for the binary reader: an
// arbitrary file is either rejected with a snap: error or yields edges
// inside [0, n), and what is allocated is bounded by the file, not by
// the edge count its header claims.
func FuzzReadGraph500(f *testing.F) {
	f.Add(g500File(g500Magic, 4, 2, 0, 1, 2, 3))
	f.Add(g500File(g500Magic, 4, 1<<62))
	f.Add(g500File(g500Magic, 0, 0))
	f.Add(g500File(g500Magic, 2, 1, 0, 2))
	f.Add([]byte("not binary"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var el *graph.EdgeList
		var err error
		if got := allocatedBy(func() { el, err = ReadGraph500(bytes.NewReader(data)) }); got > uint64(1<<20+4*len(data)) {
			t.Fatalf("allocated %d bytes for a %d-byte file", got, len(data))
		}
		if err != nil {
			if !strings.HasPrefix(err.Error(), "snap: ") {
				t.Fatalf("error without package context: %q", err)
			}
			return
		}
		if want := binary.LittleEndian.Uint64(data[8:]); uint64(len(el.Edges)) != want {
			t.Fatalf("%d edges, header says %d", len(el.Edges), want)
		}
		for _, e := range el.Edges {
			if int(e.Src) >= el.NumVertices || int(e.Dst) >= el.NumVertices {
				t.Fatalf("edge (%d,%d) outside [0,%d)", e.Src, e.Dst, el.NumVertices)
			}
		}
	})
}
