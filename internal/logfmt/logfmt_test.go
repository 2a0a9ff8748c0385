package logfmt

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"github.com/hpcl-repro/epg/internal/alloctest"
	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
)

func sample(engine string) core.Result {
	return core.Result{
		Engine:          engine,
		Dataset:         "kron-16",
		Algorithm:       engines.BFS,
		Threads:         32,
		Trial:           3,
		Root:            17,
		FileReadSec:     2.65211,
		ConstructionSec: 3.26018,
		AlgorithmSec:    0.149445,
		Iterations:      12,
		EdgesExamined:   123456,
	}
}

func TestEmitParseRoundTripAllEngines(t *testing.T) {
	for _, engine := range []string{"Graph500", "GAP", "GraphBIG", "GraphMat", "PowerGraph"} {
		t.Run(engine, func(t *testing.T) {
			in := sample(engine)
			var buf bytes.Buffer
			if err := Emit(&buf, in); err != nil {
				t.Fatal(err)
			}
			identity := core.Result{
				Engine: engine, Dataset: in.Dataset, Algorithm: in.Algorithm,
				Threads: in.Threads, Trial: in.Trial, Root: in.Root,
			}
			got, err := Parse(bytes.NewReader(buf.Bytes()), identity)
			if err != nil {
				t.Fatalf("parse: %v\nlog was:\n%s", err, buf.String())
			}
			if math.Abs(got.AlgorithmSec-in.AlgorithmSec) > 1e-5 {
				t.Errorf("algorithm time %v, want %v", got.AlgorithmSec, in.AlgorithmSec)
			}
			switch engine {
			case "Graph500", "GAP":
				if math.Abs(got.ConstructionSec-in.ConstructionSec) > 1e-4 {
					t.Errorf("construction %v, want %v", got.ConstructionSec, in.ConstructionSec)
				}
				if !got.HasConstruction {
					t.Error("construction flag lost")
				}
			case "GraphMat":
				if math.Abs(got.FileReadSec-in.FileReadSec) > 1e-4 {
					t.Errorf("file read %v, want %v", got.FileReadSec, in.FileReadSec)
				}
				if math.Abs(got.ConstructionSec-in.ConstructionSec) > 1e-4 {
					t.Errorf("construction %v, want %v", got.ConstructionSec, in.ConstructionSec)
				}
			}
			if engine != "Graph500" && got.Iterations != in.Iterations {
				t.Errorf("iterations %d, want %d", got.Iterations, in.Iterations)
			}
		})
	}
}

func TestGraphMatLogMatchesPaperShape(t *testing.T) {
	// The paper quotes GraphMat's log verbatim; ensure our emission
	// carries the same landmarks.
	var buf bytes.Buffer
	if err := Emit(&buf, sample("GraphMat")); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Finished file read of", "load graph:", "initialize engine:", "run algorithm 2", "print output:"} {
		if !strings.Contains(out, want) {
			t.Errorf("GraphMat log missing %q:\n%s", want, out)
		}
	}
}

// emitted is r's log as Emit writes it.
func emitted(t *testing.T, r core.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Emit(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Parse used to hand the scanner a zeroed 1 MiB buffer per call — half
// of everything a study run allocated — and then the scanner's own 4 KB
// start. The limit stays where it was: a 900 KB line parses, a 1.1 MB
// one is an error.
func TestParseAllocatesForTheLogNotTheLimit(t *testing.T) {
	padded := func(n int) []byte {
		return append([]byte("# "+strings.Repeat("x", n)+"\n"), emitted(t, sample("GAP"))...)
	}
	if _, err := Parse(bytes.NewReader(padded(900<<10)), core.Result{Engine: "GAP"}); err != nil {
		t.Errorf("a 900 KB line: %v", err)
	}
	if _, err := Parse(bytes.NewReader(padded(1100<<10)), core.Result{Engine: "GAP"}); err == nil {
		t.Error("a 1.1 MB line parsed: the line limit is gone")
	}
}

// Parsing one emitted Result allocates under 1 KB: the scanner's first
// buffer (parseBufBytes) and a line or two. A study parses one such log
// per result row.
func TestParseOfOneResultAllocatesUnder1KB(t *testing.T) {
	for _, engine := range []string{"Graph500", "GAP", "GraphBIG", "GraphMat", "PowerGraph"} {
		log := emitted(t, sample(engine))
		rd := bytes.NewReader(log)
		got := alloctest.BytesPerRun(20, func() {
			rd.Reset(log)
			if _, err := Parse(rd, core.Result{Engine: engine}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: parsing a %d-byte log allocates %d B", engine, len(log), got)
		if got >= 1<<10 {
			t.Errorf("%s: parsing a %d-byte log allocates %d B, want under 1 KB", engine, len(log), got)
		}
	}
}

func TestEmitUnknownEngine(t *testing.T) {
	if err := Emit(&bytes.Buffer{}, core.Result{Engine: "Ligra"}); err == nil {
		t.Error("unknown engine accepted")
	}
}

func TestParseRejectsEmptyLog(t *testing.T) {
	_, err := Parse(strings.NewReader("nothing relevant\n"), core.Result{Engine: "GAP"})
	if err == nil {
		t.Error("empty log accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	in := []core.Result{
		sample("GAP"),
		{
			Engine: "PowerGraph", Dataset: "dota-league", Algorithm: engines.SSSP,
			Threads: 16, Trial: 1, Root: 9, AlgorithmSec: 1.5, WallSec: 0.002,
			CPUJoules: 70.5, RAMJoules: 10.25, AvgCPUWatts: 47, AvgRAMWatts: 6.8,
		},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(in) {
		t.Fatalf("rows = %d, want %d", len(got), len(in))
	}
	for i := range in {
		if got[i].Engine != in[i].Engine || got[i].Dataset != in[i].Dataset ||
			got[i].Algorithm != in[i].Algorithm || got[i].Threads != in[i].Threads {
			t.Errorf("row %d identity mismatch: %+v vs %+v", i, got[i], in[i])
		}
		if math.Abs(got[i].AlgorithmSec-in[i].AlgorithmSec) > 1e-9 {
			t.Errorf("row %d time mismatch", i)
		}
		if math.Abs(got[i].CPUJoules-in[i].CPUJoules) > 1e-6 {
			t.Errorf("row %d energy mismatch", i)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("a,b,c\n")); err == nil {
		t.Error("short row accepted")
	}
	if _, err := ReadCSV(strings.NewReader(CSVHeader + "\nGAP,k,BFS,x,0,0,0,0,1,0,0,0,0,0,0,0\n")); err == nil {
		t.Error("bad threads accepted")
	}
}

func TestReadCSVSkipsHeaderAndBlank(t *testing.T) {
	csv := CSVHeader + "\n\nGAP,k,BFS,2,0,0,0,0,1.5,0,0,0,0,0,0,0\n"
	got, err := ReadCSV(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].AlgorithmSec != 1.5 {
		t.Errorf("got %+v", got)
	}
}
