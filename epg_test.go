package epg

import (
	"bytes"
	"strings"
	"testing"
)

func TestSuiteDatasets(t *testing.T) {
	s := NewSuite(Options{RealWorldDivisor: 512, Seed: 3})
	for _, name := range []string{"kron-8", "dota-league", "cit-Patents"} {
		g, err := s.Dataset(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s invalid: %v", name, err)
		}
		if g.NumVertices() == 0 || g.NumEdges() == 0 {
			t.Errorf("%s empty", name)
		}
	}
	if _, err := s.Dataset("nope"); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestRunAndRenderEndToEnd(t *testing.T) {
	s := NewSuite()
	g, err := s.Dataset("kron-8")
	if err != nil {
		t.Fatal(err)
	}
	results, err := s.Run(Spec{Algorithm: BFS, Threads: 8, Roots: 3, MeasurePower: true}, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results")
	}

	var fig bytes.Buffer
	RenderTimeFigure(&fig, "BFS Time", results)
	RenderConstructionFigure(&fig, "BFS Data Structure Construction", results)
	s.RenderEnergyTable(&fig, results)
	s.RenderPowerFigure(&fig, results)
	out := fig.String()
	for _, want := range []string{"BFS Time", "Construction", "Table III", "Fig. 9a"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}

	var csv bytes.Buffer
	if err := WriteCSV(&csv, results); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&csv)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(results) {
		t.Errorf("csv round trip lost rows: %d vs %d", len(back), len(results))
	}
}

func TestSweepAndScalingFigure(t *testing.T) {
	s := NewSuite()
	g, err := s.Dataset("kron-9")
	if err != nil {
		t.Fatal(err)
	}
	series, err := s.Sweep(Spec{Algorithm: BFS, Engines: []string{"GAP"}}, g, []int{1, 2, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(series["GAP"]) != 3 {
		t.Fatalf("series = %v", series)
	}
	var sb strings.Builder
	if err := RenderScalingFigure(&sb, "Fig 5/6", series); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "speedup") {
		t.Error("scaling figure missing speedup column")
	}
}

func TestGraphalyticsEndToEnd(t *testing.T) {
	s := NewSuite()
	g, err := s.Dataset("kron-8")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := s.Graphalytics(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	var tbl, html bytes.Buffer
	RenderGraphalyticsTable(&tbl, "Table II analogue", cells)
	if err := RenderGraphalyticsHTML(&html, "GraphMat", cells); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "GraphMat") || !strings.Contains(html.String(), "GraphMat") {
		t.Error("graphalytics outputs incomplete")
	}
}

func TestHomogenizeFormats(t *testing.T) {
	s := NewSuite()
	g, _ := s.Dataset("kron-6")
	for _, f := range Formats() {
		var buf bytes.Buffer
		if err := s.Homogenize(&buf, g, f); err != nil {
			t.Errorf("format %s: %v", f, err)
		}
		if buf.Len() == 0 {
			t.Errorf("format %s produced no output", f)
		}
	}
}

func TestReadSNAP(t *testing.T) {
	s := NewSuite()
	g, err := s.ReadSNAP(strings.NewReader("0 1\n1 2\n2 0\n"), "tiny")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Errorf("tiny graph = %d/%d", g.NumVertices(), g.NumEdges())
	}
	if g.Weighted() {
		t.Error("unweighted read as weighted")
	}
}

func TestSleepBaseline(t *testing.T) {
	s := NewSuite()
	got := s.MeasureSleepBaseline(10)
	if want := s.SleepWatts(); got != want {
		t.Errorf("sleep baseline %v, want %v", got, want)
	}
	if s.CPUIdleWatts() <= 0 || s.RAMIdleWatts() <= 0 {
		t.Error("idle constants missing")
	}
	if s.MachineName() == "" {
		t.Error("machine name missing")
	}
}
