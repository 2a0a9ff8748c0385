package report

import (
	"strings"
	"testing"

	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
)

func sampleResults() []core.Result {
	var out []core.Result
	for trial := 0; trial < 4; trial++ {
		out = append(out,
			core.Result{Engine: "GAP", Algorithm: engines.BFS, Dataset: "kron-16", Trial: trial,
				AlgorithmSec: 0.01 + float64(trial)*0.001, ConstructionSec: 1.1, HasConstruction: true,
				AvgCPUWatts: 72, AvgRAMWatts: 15, CPUJoules: 1.1, RAMJoules: 0.2},
			core.Result{Engine: "GraphBIG", Algorithm: engines.BFS, Dataset: "kron-16", Trial: trial,
				AlgorithmSec: 1.5 + float64(trial)*0.1,
				AvgCPUWatts:  78, AvgRAMWatts: 17, CPUJoules: 110, RAMJoules: 20},
			core.Result{Engine: "GraphMat", Algorithm: engines.BFS, Dataset: "kron-16", Trial: trial,
				AlgorithmSec: 1.4, ConstructionSec: 3.2, HasConstruction: true,
				AvgCPUWatts: 70, AvgRAMWatts: 12, CPUJoules: 100, RAMJoules: 17},
		)
	}
	return out
}

func TestTableAlignment(t *testing.T) {
	var sb strings.Builder
	Table(&sb, "T", []string{"a", "longheader"}, [][]string{{"x", "1"}, {"yy", "22"}})
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "a ") {
		t.Errorf("header misaligned: %q", lines[1])
	}
}

func TestFormatSeconds(t *testing.T) {
	cases := map[float64]string{
		0:      "N/A",
		0.0163: "0.0163",
		2.65:   "2.65",
		1073.7: "1073.7",
	}
	for in, want := range cases {
		if got := FormatSeconds(in); got != want {
			t.Errorf("FormatSeconds(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestBoxPlotRendersAllSeries(t *testing.T) {
	var sb strings.Builder
	BoxPlot(&sb, "BFS Time", map[string][]float64{
		"GAP":      {0.01, 0.02, 0.015},
		"GraphMat": {1.4, 1.5, 1.45},
	}, true)
	out := sb.String()
	for _, want := range []string{"GAP", "GraphMat", "#", "log10"} {
		if !strings.Contains(out, want) {
			t.Errorf("box plot missing %q:\n%s", want, out)
		}
	}
}

func TestBoxPlotLogFallsBackOnNonPositive(t *testing.T) {
	var sb strings.Builder
	BoxPlot(&sb, "t", map[string][]float64{"X": {0, 1}}, true)
	if !strings.Contains(sb.String(), "linear") {
		t.Error("log scale kept with zero values")
	}
}

func TestBoxPlotEmpty(t *testing.T) {
	var sb strings.Builder
	BoxPlot(&sb, "t", nil, false)
	if !strings.Contains(sb.String(), "no data") {
		t.Error("empty series not handled")
	}
}

func TestConstructionFigureFiltersEngines(t *testing.T) {
	var sb strings.Builder
	ConstructionFigure(&sb, "Fig 2b", sampleResults())
	out := sb.String()
	if strings.Contains(out, "GraphBIG") {
		t.Error("GraphBIG must be omitted from construction panels")
	}
	for _, want := range []string{"GAP", "GraphMat"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %s", want)
		}
	}
}

func TestEnergyTableShape(t *testing.T) {
	var sb strings.Builder
	EnergyTable(&sb, sampleResults(), 24.7)
	out := sb.String()
	for _, want := range []string{
		"Table III", "Time (s)", "Average Power per Root",
		"Energy per Root", "Sleeping Energy", "Increase over Sleep",
		"GAP", "GraphBIG", "GraphMat",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("energy table missing %q:\n%s", want, out)
		}
	}
}

func TestScalingFigure(t *testing.T) {
	var sb strings.Builder
	err := ScalingFigure(&sb, "Fig 5/6", map[string]map[int]float64{
		"GAP":      {1: 1.0, 2: 0.55, 4: 0.3},
		"Graph500": {1: 1.2, 2: 1.3, 4: 0.8},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "efficiency") {
		t.Error("missing efficiency column")
	}
	// Graph500's 2-thread entry must show efficiency < 0.5 (slower
	// at 2 threads than 1, the Fig. 6 anomaly shape).
	if !strings.Contains(out, "0.462") {
		t.Errorf("expected 2-thread efficiency 0.462 in:\n%s", out)
	}
}

func TestScalingFigureMissingBaseline(t *testing.T) {
	err := ScalingFigure(&strings.Builder{}, "x", map[string]map[int]float64{"GAP": {2: 1}})
	if err == nil {
		t.Error("missing baseline accepted")
	}
}

func TestRealWorldFigure(t *testing.T) {
	rs := []core.Result{
		{Engine: "GAP", Dataset: "dota-league", Algorithm: engines.BFS, AlgorithmSec: 0.1},
		{Engine: "GAP", Dataset: "cit-Patents", Algorithm: engines.BFS, AlgorithmSec: 0.2},
		{Engine: "PowerGraph", Dataset: "dota-league", Algorithm: engines.SSSP, AlgorithmSec: 3},
	}
	var sb strings.Builder
	RealWorldFigure(&sb, rs)
	out := sb.String()
	for _, want := range []string{"dota-league", "cit-Patents", "GAP", "PowerGraph"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestPowerFigure(t *testing.T) {
	var sb strings.Builder
	PowerFigure(&sb, sampleResults(), 15.5, 9.2)
	out := sb.String()
	if !strings.Contains(out, "Fig. 9a") || !strings.Contains(out, "Fig. 9b") {
		t.Error("missing panels")
	}
	if !strings.Contains(out, "sleep baseline: 15.5 W") {
		t.Error("missing CPU sleep baseline")
	}
}

func TestIterationsFigure(t *testing.T) {
	rs := []core.Result{
		{Engine: "GAP", Iterations: 20},
		{Engine: "GraphMat", Iterations: 140},
	}
	var sb strings.Builder
	IterationsFigure(&sb, "Fig 4b", rs)
	out := sb.String()
	if !strings.Contains(out, "GAP") || !strings.Contains(out, "GraphMat") {
		t.Error("missing engines")
	}
	if !strings.Contains(out, "140") {
		t.Error("missing iteration count")
	}
}

func TestEngineOrdering(t *testing.T) {
	keys := sortedKeys(map[string]int{"Zeta": 1, "GAP": 1, "PowerGraph": 1, "Graph500": 1})
	want := []string{"Graph500", "GAP", "PowerGraph", "Zeta"}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("order = %v, want %v", keys, want)
		}
	}
}
