// Package graphalytics reproduces the comparison methodology of LDBC
// Graphalytics v0.3 as the paper characterizes it — the foil against
// which easy-parallel-graph-* is positioned:
//
//   - each experiment is run exactly once ("just one run per
//     experiment is performed", Table I);
//   - what counts as the reported runtime differs per platform, the
//     paper's central fairness critique: GraphMat's reported time
//     includes reading the input file from disk and building the
//     matrix, GraphBIG's covers only the computation, and
//     PowerGraph's includes graph ingest and engine spin-up;
//   - platforms without a native kernel get a driver-provided one:
//     Graphalytics ships a BFS vertex program for PowerGraph, which
//     this package reproduces by running BFS as unit-weight SSSP
//     through the GAS engine;
//   - output is an HTML page per software package (Fig. 7).
package graphalytics

import (
	"fmt"
	"html/template"
	"io"
	"sort"
	"time"

	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/harness"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// Platforms compared by the paper's Graphalytics experiments
// (Tables I and II).
var Platforms = []string{"GraphBIG", "PowerGraph", "GraphMat"}

// Algorithms in Graphalytics's column order (Table I).
var Algorithms = []engines.Algorithm{
	engines.BFS, engines.CDLP, engines.LCC,
	engines.PageRank, engines.SSSP, engines.WCC,
}

// Cell is one (platform, dataset, algorithm) measurement.
type Cell struct {
	Platform  string
	Dataset   string
	Algorithm engines.Algorithm
	// Seconds is the platform-reported runtime under Graphalytics's
	// inconsistent accounting; NA marks unsupported combinations
	// (e.g. SSSP on an unweighted graph).
	Seconds float64
	NA      bool
	// Breakdown retained so reports can expose the inconsistency.
	FileReadSec     float64
	ConstructionSec float64
	AlgorithmSec    float64
	WallSec         float64
}

// Comparator runs the methodology.
type Comparator struct {
	Registry engines.Registry
	Model    simmachine.Model
	Threads  int
	Seed     uint64
}

// New returns a comparator at the paper's 32-thread configuration.
func New(registry engines.Registry) *Comparator {
	return &Comparator{
		Registry: registry,
		Model:    simmachine.Haswell72(),
		Threads:  32,
		Seed:     1,
	}
}

// RunDataset measures every (platform, algorithm) cell on one
// dataset, one run each, from one root drawn with the comparator's
// seed. A cell keeps only its times, so every run writes into one set
// of results.
func (c *Comparator) RunDataset(dataset string, el *graph.EdgeList) ([]Cell, error) {
	g, err := graph.Homogenize(el)
	if err != nil {
		return nil, fmt.Errorf("graphalytics: %w", err)
	}
	root := pickRoot(el, c.Seed)
	var cells []Cell
	var dst engines.Results
	for _, platform := range Platforms {
		d, err := c.Registry.Decl(platform)
		if err != nil {
			return nil, err
		}
		m := simmachine.New(c.Model, c.Threads)
		// Ingest phase, timed for the platforms whose reported numbers
		// include it.
		inst := d.New()
		fileRead, construction := harness.Load(d, inst, engines.Options{}, g, m)
		var unit engines.Instance
		if platform == "PowerGraph" {
			if unit, err = unitWeight(d, el, m); err != nil {
				return nil, fmt.Errorf("graphalytics: %s BFS driver: %w", platform, err)
			}
		}

		for _, alg := range Algorithms {
			cell := Cell{
				Platform: platform, Dataset: dataset, Algorithm: alg,
				FileReadSec: fileRead, ConstructionSec: construction,
			}
			_, t0 := m.Mark()
			wall0 := time.Now()
			err := runOnce(inst, unit, alg, root, &dst)
			cell.WallSec = time.Since(wall0).Seconds()
			_, t1 := m.Mark()
			cell.AlgorithmSec = t1 - t0
			if err != nil {
				if err == engines.ErrUnsupported {
					cell.NA = true
					cells = append(cells, cell)
					continue
				}
				return nil, fmt.Errorf("graphalytics: %s %s: %w", platform, alg, err)
			}
			cell.Seconds = c.reportedTime(platform, cell)
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

// unitWeight loads the Graphalytics PowerGraph driver's graph on m: the
// dataset's edges at one weight, which makes SSSP a BFS. It is loaded
// once per dataset, before any cell's timing starts, so the BFS cell
// is charged the unit-weight SSSP alone; the ingest the platform
// reports is the dataset's own, which reportedTime adds once.
func unitWeight(d *engines.Decl, el *graph.EdgeList, m *simmachine.Machine) (engines.Instance, error) {
	unit := &graph.EdgeList{
		NumVertices: el.NumVertices,
		Edges:       make([]graph.Edge, len(el.Edges)),
		Weighted:    true,
		Directed:    el.Directed,
	}
	for i, e := range el.Edges {
		unit.Edges[i] = graph.Edge{Src: e.Src, Dst: e.Dst, W: 0.5}
	}
	g, err := graph.Homogenize(unit)
	if err != nil {
		return nil, err
	}
	inst := d.New()
	harness.Load(d, inst, engines.Options{}, g, m)
	return inst, nil
}

// runOnce executes one algorithm on inst into dst; with unit set
// (PowerGraph, which has no BFS of its own) BFS is Graphalytics's
// driver-provided one, unit-weight SSSP through the GAS engine.
func runOnce(inst, unit engines.Instance, alg engines.Algorithm, root graph.VID, dst *engines.Results) error {
	if alg == engines.BFS && unit != nil {
		_, err := unit.SSSP(root, &dst.SSSP)
		return err
	}
	_, err := engines.RunInto(inst, alg, root, dst)
	return err
}

// reportedTime applies each platform's (inconsistent) accounting.
func (c *Comparator) reportedTime(platform string, cell Cell) float64 {
	switch platform {
	case "GraphMat":
		// Includes reading the file from disk and building the
		// matrix (the paper's Table I critique).
		return cell.FileReadSec + cell.ConstructionSec + cell.AlgorithmSec
	case "GraphBIG":
		// Computation only.
		return cell.AlgorithmSec
	case "PowerGraph":
		// Ingest + partitioning + compute.
		return cell.FileReadSec + cell.AlgorithmSec
	default:
		return cell.AlgorithmSec
	}
}

// pickRoot draws the dataset's one root with seed from the CSR of its
// edge list, symmetrized when undirected, without self-loops.
func pickRoot(el *graph.EdgeList, seed uint64) graph.VID {
	csr := graph.BuildCSR(el, graph.BuildOptions{Symmetrize: !el.Directed, DropSelfLoops: true})
	roots := core.SelectRoots(csr, 1, seed)
	if len(roots) == 0 {
		return 0
	}
	return roots[0]
}

// WriteTable renders cells in the layout of Tables I and II: one row
// block per platform, one column per algorithm.
func WriteTable(w io.Writer, title string, cells []Cell) {
	type key struct {
		platform, dataset string
	}
	rows := map[key]map[engines.Algorithm]Cell{}
	var keys []key
	for _, c := range cells {
		k := key{c.Platform, c.Dataset}
		if rows[k] == nil {
			rows[k] = map[engines.Algorithm]Cell{}
			keys = append(keys, k)
		}
		rows[k][c.Algorithm] = c
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].platform != keys[j].platform {
			return keys[i].platform < keys[j].platform
		}
		return keys[i].dataset < keys[j].dataset
	})
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-12s %-14s", "platform", "dataset")
	for _, alg := range Algorithms {
		fmt.Fprintf(w, " %8s", alg)
	}
	fmt.Fprintln(w)
	for _, k := range keys {
		fmt.Fprintf(w, "%-12s %-14s", k.platform, k.dataset)
		for _, alg := range Algorithms {
			c, ok := rows[k][alg]
			if !ok || c.NA {
				fmt.Fprintf(w, " %9s", "N/A")
				continue
			}
			fmt.Fprintf(w, " %9s", formatSeconds(c.Seconds))
		}
		fmt.Fprintln(w)
	}
}

// formatSeconds keeps one decimal for paper-scale values and switches
// to significant digits for small modeled times.
func formatSeconds(s float64) string {
	if s >= 10 {
		return fmt.Sprintf("%.1f", s)
	}
	return fmt.Sprintf("%.3g", s)
}

var htmlTemplate = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html><head><title>Graphalytics report: {{.Platform}}</title></head>
<body>
<h1>Benchmark report &mdash; {{.Platform}}</h1>
<p>One run per experiment. Reported times use the platform's own accounting.</p>
<table border="1">
<tr><th>Dataset</th><th>Algorithm</th><th>Runtime (s)</th></tr>
{{range .Cells}}<tr><td>{{.Dataset}}</td><td>{{.Algorithm}}</td><td>{{if .NA}}N/A{{else}}{{printf "%.2f" .Seconds}}{{end}}</td></tr>
{{end}}</table>
</body></html>
`))

// WriteHTML emits one HTML page for the given platform (Fig. 7:
// "Graphalytics outputs one HTML page per software package").
func WriteHTML(w io.Writer, platform string, cells []Cell) error {
	var mine []Cell
	for _, c := range cells {
		if c.Platform == platform {
			mine = append(mine, c)
		}
	}
	return htmlTemplate.Execute(w, struct {
		Platform string
		Cells    []Cell
	}{platform, mine})
}
