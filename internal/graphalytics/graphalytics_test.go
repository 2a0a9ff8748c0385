package graphalytics

import (
	"strings"
	"testing"

	"github.com/hpcl-repro/epg/internal/datasets"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/all"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/harness"
	"github.com/hpcl-repro/epg/internal/kronecker"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

func runSmallKron(t *testing.T) []Cell {
	t.Helper()
	c := New(all.Registry())
	c.Threads = 8
	el := kronecker.Generate(kronecker.Params{Scale: 8, Seed: 3})
	cells, err := c.RunDataset("kron-8", el)
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

func TestAllCellsPresent(t *testing.T) {
	cells := runSmallKron(t)
	if want := len(Platforms) * len(Algorithms); len(cells) != want {
		t.Fatalf("cells = %d, want %d", len(cells), want)
	}
	for _, c := range cells {
		if c.NA {
			t.Errorf("%s/%s unexpectedly N/A on a weighted graph", c.Platform, c.Algorithm)
		}
		if !c.NA && c.Seconds <= 0 {
			t.Errorf("%s/%s has no reported time", c.Platform, c.Algorithm)
		}
	}
}

func TestPowerGraphBFSViaDriver(t *testing.T) {
	// PowerGraph has no native BFS; the Graphalytics driver
	// provides one, so the cell must carry a number (Table I).
	for _, c := range runSmallKron(t) {
		if c.Platform == "PowerGraph" && c.Algorithm == engines.BFS {
			if c.NA || c.Seconds <= 0 {
				t.Errorf("PowerGraph BFS cell = %+v, want driver-provided time", c)
			}
			return
		}
	}
	t.Fatal("PowerGraph BFS cell missing")
}

func TestSSSPNAOnUnweighted(t *testing.T) {
	// The cit-Patents column of Table I: SSSP is N/A because the
	// graph is unweighted.
	c := New(all.Registry())
	c.Threads = 4
	el := datasets.GenerateCitPatents(datasets.Config{ScaleDivisor: 4096, Seed: 1})
	cells, err := c.RunDataset("cit-Patents", el)
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range cells {
		if cell.Algorithm == engines.SSSP && !cell.NA {
			t.Errorf("%s SSSP on unweighted graph not N/A", cell.Platform)
		}
	}
}

func TestTimingInconsistencyReproduced(t *testing.T) {
	// The paper's critique: GraphMat's reported time includes the
	// file read; GraphBIG's does not.
	cells := runSmallKron(t)
	byPlatform := map[string]Cell{}
	for _, c := range cells {
		if c.Algorithm == engines.PageRank {
			byPlatform[c.Platform] = c
		}
	}
	gm := byPlatform["GraphMat"]
	if gm.Seconds <= gm.AlgorithmSec {
		t.Errorf("GraphMat reported %v should exceed pure algorithm %v (file read included)",
			gm.Seconds, gm.AlgorithmSec)
	}
	if gm.FileReadSec <= 0 {
		t.Error("GraphMat file read not recorded")
	}
	gb := byPlatform["GraphBIG"]
	if gb.Seconds != gb.AlgorithmSec {
		t.Errorf("GraphBIG reported %v should equal pure algorithm %v (file read excluded)",
			gb.Seconds, gb.AlgorithmSec)
	}
	pg := byPlatform["PowerGraph"]
	if pg.Seconds <= pg.AlgorithmSec {
		t.Error("PowerGraph reported time should include ingest")
	}
}

func TestWriteTableLayout(t *testing.T) {
	cells := runSmallKron(t)
	var sb strings.Builder
	WriteTable(&sb, "Table II analogue", cells)
	out := sb.String()
	for _, want := range []string{"GraphBIG", "PowerGraph", "GraphMat", "BFS", "CDLP", "LCC", "PR", "SSSP", "WCC"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestWriteHTML(t *testing.T) {
	cells := runSmallKron(t)
	var sb strings.Builder
	if err := WriteHTML(&sb, "GraphBIG", cells); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"<html>", "GraphBIG", "<table", "Runtime"} {
		if !strings.Contains(out, want) {
			t.Errorf("html missing %q", want)
		}
	}
	if strings.Contains(out, "PowerGraph") {
		t.Error("per-platform page leaked other platforms")
	}
}

// The comparator's seed picks the root: two seeds pick two roots on a
// kron dataset.
func TestSeedPicksTheRoot(t *testing.T) {
	el := kronecker.Generate(kronecker.Params{Scale: 8, Seed: 3})
	if a, b := pickRoot(el, 1), pickRoot(el, 2); a == b {
		t.Fatalf("seeds 1 and 2 both pick root %d", a)
	}
}

// PowerGraph's BFS cell is the driver's unit-weight SSSP and nothing
// else: its algorithm seconds equal that SSSP's own, from the root the
// comparator's seed picks, on a machine that loaded what the
// comparator's does first (the dataset, then the unit-weight graph).
// The ingest is charged once, as the dataset's file read.
func TestPowerGraphBFSChargesTheUnitWeightSSSPAlone(t *testing.T) {
	c := New(all.Registry())
	c.Threads, c.Seed = 8, 2
	el := kronecker.Generate(kronecker.Params{Scale: 8, Seed: 3})
	cells, err := c.RunDataset("kron-8", el)
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Registry.Decl("PowerGraph")
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Homogenize(el)
	if err != nil {
		t.Fatal(err)
	}
	m := simmachine.New(c.Model, c.Threads)
	harness.Load(d, d.New(), engines.Options{}, g, m)
	unit, err := unitWeight(d, el, m)
	if err != nil {
		t.Fatal(err)
	}
	_, t0 := m.Mark()
	if _, err := unit.SSSP(pickRoot(el, c.Seed), nil); err != nil {
		t.Fatal(err)
	}
	_, t1 := m.Mark()
	for _, cell := range cells {
		if cell.Platform == "PowerGraph" && cell.Algorithm == engines.BFS {
			if cell.AlgorithmSec != t1-t0 || cell.Seconds != cell.FileReadSec+cell.AlgorithmSec {
				t.Fatalf("PowerGraph BFS cell %+v; the unit-weight SSSP alone takes %v s", cell, t1-t0)
			}
			return
		}
	}
	t.Fatal("PowerGraph BFS cell missing")
}
