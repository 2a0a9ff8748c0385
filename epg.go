// Package epg is a Go reproduction of "A Comparison of Parallel Graph
// Processing Implementations" (Pollard & Norris, IEEE CLUSTER 2017):
// the easy-parallel-graph-* framework together with Go analogues of
// the five systems it studies — Graph500, the GAP Benchmark Suite,
// GraphBIG, GraphMat, and PowerGraph.
//
// The package is a façade over the internal packages. A typical
// session mirrors the paper's workflow:
//
//	suite := epg.NewSuite()
//	g, _ := suite.Dataset("kron-16")
//	results, _ := suite.Run(epg.Spec{
//	    Dataset:   "kron-16",
//	    Algorithm: epg.BFS,
//	    Threads:   32,
//	}, g)
//	epg.RenderTimeFigure(os.Stdout, "BFS Time", results)
//
// Engines run their algorithms for real (results are validated
// against serial references in the test suite) while all performance
// accounting flows through a deterministic model of the paper's
// 72-thread Haswell server; see ARCHITECTURE.md for the substitutions.
package epg

import (
	"fmt"
	"io"

	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/all"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/graphalytics"
	"github.com/hpcl-repro/epg/internal/harness"
	"github.com/hpcl-repro/epg/internal/logfmt"
	"github.com/hpcl-repro/epg/internal/power"
	"github.com/hpcl-repro/epg/internal/report"
	"github.com/hpcl-repro/epg/internal/simmachine"
	"github.com/hpcl-repro/epg/internal/snap"
)

// Algorithm identifies one of the study's kernels.
type Algorithm = engines.Algorithm

// The six kernels: the paper's three primary algorithms and the three
// Graphalytics extras.
const (
	BFS      = engines.BFS
	SSSP     = engines.SSSP
	PageRank = engines.PageRank
	CDLP     = engines.CDLP
	LCC      = engines.LCC
	WCC      = engines.WCC
)

// Spec describes one experiment: its identity (dataset, algorithm,
// engines, threads, roots, seed, metering) and the execution knobs
// listed in Knobs. Each field's doc comment is the knob's reference.
type Spec = core.Spec

// Knobs is the table that declares each execution knob of a Spec once
// (legal values, CLI flag, machine/engine hook), in Spec field order;
// see "Adding a knob" in ARCHITECTURE.md.
var Knobs = core.Knobs

// Scheduling policies for Spec.Sched.
const (
	SchedAuto    = core.SchedAuto
	SchedStatic  = core.SchedStatic
	SchedDynamic = core.SchedDynamic
	SchedSteal   = core.SchedSteal
	SchedNUMA    = core.SchedNUMA
)

// Grain policies for Spec.Grain.
const (
	GrainFixed    = core.GrainFixed
	GrainAdaptive = core.GrainAdaptive
)

// Placement models for Spec.Placement.
const (
	PlacementNone       = core.PlacementNone
	PlacementFirstTouch = core.PlacementFirstTouch
)

// Frequency states for Spec.FreqState.
const (
	FreqTurbo     = core.FreqTurbo
	FreqBalanced  = core.FreqBalanced
	FreqPowersave = core.FreqPowersave
)

// Partition schemes for Spec.Partition.
const (
	Partition1D = core.Partition1D
	Partition2D = core.Partition2D
)

// MutationSchedule parameterizes Spec.Mutations, the streaming phase.
// Stream rows carry Result.Batch > 0 with the mutate / maintain /
// recompute breakdown.
type MutationSchedule = core.MutationSchedule

// Result is one measured run with its phase breakdown.
type Result = core.Result

// GraphalyticsCell is one single-run measurement under the
// Graphalytics methodology.
type GraphalyticsCell = graphalytics.Cell

// Graph is a loaded dataset ready to hand to engines.
type Graph struct {
	Name string
	el   *graph.EdgeList
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return g.el.NumVertices }

// NumEdges returns the edge count of the raw edge list.
func (g *Graph) NumEdges() int { return len(g.el.Edges) }

// Weighted reports whether edges carry weights.
func (g *Graph) Weighted() bool { return g.el.Weighted }

// Options configure a Suite.
type Options struct {
	// RealWorldDivisor shrinks the synthetic real-world datasets
	// (1 reproduces the published sizes). Default 64: laptop scale.
	RealWorldDivisor int
	// Seed drives all synthetic generation and root selection.
	Seed uint64
	// EdgeFactor overrides the Kronecker edge factor (default 16).
	EdgeFactor int
	// Warnings receives structured knob-drop warnings from the
	// harness (an engine silently ignoring a Spec knob means the
	// result row does not measure what the spec asked for). Nil
	// discards them; the CLI wires this to stderr.
	Warnings io.Writer
}

// Suite bundles the framework's runner, machine model, and dataset
// resolution.
type Suite struct {
	runner *harness.Runner
	opts   Options
}

// NewSuite returns a suite over all five engines with the paper's
// Haswell calibration.
func NewSuite(opts ...Options) *Suite {
	o := Options{RealWorldDivisor: 64, Seed: 1}
	if len(opts) > 0 {
		o = opts[0]
		if o.RealWorldDivisor == 0 {
			o.RealWorldDivisor = 64
		}
	}
	r := harness.NewRunner(all.Registry())
	r.Warnings = o.Warnings
	return &Suite{runner: r, opts: o}
}

// Dataset materializes a named dataset: "kron-<scale>", "dota-league"
// or "cit-Patents".
func (s *Suite) Dataset(name string) (*Graph, error) {
	el, err := harness.ResolveDataset(name, harness.DatasetOptions{
		Seed:             s.opts.Seed,
		RealWorldDivisor: s.opts.RealWorldDivisor,
		EdgeFactor:       s.opts.EdgeFactor,
	})
	if err != nil {
		return nil, err
	}
	return &Graph{Name: name, el: el}, nil
}

// ReadSNAP loads a graph from a SNAP-format stream, so arbitrary
// datasets can be used, as in the original framework.
func (s *Suite) ReadSNAP(r io.Reader, name string) (*Graph, error) {
	res, err := snap.Read(r)
	if err != nil {
		return nil, err
	}
	return &Graph{Name: name, el: res.Graph}, nil
}

// Homogenize writes the graph in the named engine format (phase 2 of
// the framework). See snap.AllFormats for the choices.
func (s *Suite) Homogenize(w io.Writer, g *Graph, format string) error {
	return snap.WriteFormat(w, g.el, snap.Format(format), g.Name)
}

// Formats lists the homogenization targets.
func Formats() []string {
	out := make([]string, len(snap.AllFormats))
	for i, f := range snap.AllFormats {
		out[i] = string(f)
	}
	return out
}

// Run executes a spec on g (phase 3) and returns normalized records
// (phase 4's output).
func (s *Suite) Run(spec Spec, g *Graph) ([]Result, error) {
	if spec.Dataset == "" {
		spec.Dataset = g.Name
	}
	if spec.Seed == 0 {
		spec.Seed = s.opts.Seed
	}
	return s.runner.Run(spec, g.el)
}

// Sweep measures spec across thread counts for the scalability
// figures; trials defaults to the paper's 4.
func (s *Suite) Sweep(spec Spec, g *Graph, threads []int, trials int) (map[string]map[int]float64, error) {
	if spec.Dataset == "" {
		spec.Dataset = g.Name
	}
	if spec.Seed == 0 {
		spec.Seed = s.opts.Seed
	}
	points, err := s.runner.Sweep(spec, g.el, threads, trials)
	if err != nil {
		return nil, err
	}
	out := map[string]map[int]float64{}
	for _, p := range points {
		if out[p.Engine] == nil {
			out[p.Engine] = map[int]float64{}
		}
		mean := 0.0
		for _, v := range p.Seconds {
			mean += v
		}
		out[p.Engine][p.Threads] = mean / float64(len(p.Seconds))
	}
	return out, nil
}

// Graphalytics runs the single-trial Graphalytics methodology on g at
// the given thread count (Tables I and II, Fig. 7).
func (s *Suite) Graphalytics(g *Graph, threads int) ([]GraphalyticsCell, error) {
	c := graphalytics.New(all.Registry())
	if threads > 0 {
		c.Threads = threads
	}
	c.Seed = s.opts.Seed
	return c.RunDataset(g.Name, g.el)
}

// SleepWatts returns the modeled idle draw (CPU+RAM), the paper's
// sleep(10) baseline.
func (s *Suite) SleepWatts() float64 { return s.runner.Power.SleepWatts() }

// CPUIdleWatts and RAMIdleWatts expose the per-plane idle calibration
// for Fig. 9's baselines.
func (s *Suite) CPUIdleWatts() float64 { return s.runner.Power.CPUIdleWatts }

// RAMIdleWatts returns the DRAM plane idle draw.
func (s *Suite) RAMIdleWatts() float64 { return s.runner.Power.RAMIdleWatts }

// MachineName describes the modeled machine.
func (s *Suite) MachineName() string { return s.runner.Model.Name }

// MeasureSleepBaseline reproduces the paper's ten-second sleep
// calibration and returns average watts.
func (s *Suite) MeasureSleepBaseline(seconds float64) float64 {
	m := simmachine.New(s.runner.Model, 1)
	rd := power.MeasureSleep(m, s.runner.Power, seconds)
	return rd.AvgWatts()
}

// WriteCSV writes normalized records (the phase-4 CSV).
func WriteCSV(w io.Writer, results []Result) error { return logfmt.WriteCSV(w, results) }

// ReadCSV parses the phase-4 CSV back into records.
func ReadCSV(r io.Reader) ([]Result, error) { return logfmt.ReadCSV(r) }

// RenderTimeFigure renders a Fig. 2/3/4-style box-plot panel of
// algorithm times.
func RenderTimeFigure(w io.Writer, title string, results []Result) {
	report.TimeBoxFigure(w, title, results)
}

// RenderConstructionFigure renders the construction-time panel
// (engines without a separate phase are omitted, as in the paper).
func RenderConstructionFigure(w io.Writer, title string, results []Result) {
	report.ConstructionFigure(w, title, results)
}

// RenderIterationsFigure renders Fig. 4's iteration-count panel.
func RenderIterationsFigure(w io.Writer, title string, results []Result) {
	report.IterationsFigure(w, title, results)
}

// RenderScalingFigure renders Figs. 5/6 from Sweep output.
func RenderScalingFigure(w io.Writer, title string, byEngine map[string]map[int]float64) error {
	return report.ScalingFigure(w, title, byEngine)
}

// RenderRealWorldFigure renders Fig. 8.
func RenderRealWorldFigure(w io.Writer, results []Result) {
	report.RealWorldFigure(w, results)
}

// RenderPowerFigure renders Fig. 9 with the suite's idle baselines.
func (s *Suite) RenderPowerFigure(w io.Writer, results []Result) {
	report.PowerFigure(w, results, s.CPUIdleWatts(), s.RAMIdleWatts())
}

// RenderEnergyTable renders Table III.
func (s *Suite) RenderEnergyTable(w io.Writer, results []Result) {
	report.EnergyTable(w, results, s.SleepWatts())
}

// RenderGraphalyticsTable renders Tables I/II from comparator cells.
func RenderGraphalyticsTable(w io.Writer, title string, cells []GraphalyticsCell) {
	graphalytics.WriteTable(w, title, cells)
}

// RenderGraphalyticsHTML writes the per-platform HTML page (Fig. 7).
func RenderGraphalyticsHTML(w io.Writer, platform string, cells []GraphalyticsCell) error {
	return graphalytics.WriteHTML(w, platform, cells)
}

// Validate sanity-checks a loaded graph.
func (g *Graph) Validate() error {
	if g == nil || g.el == nil {
		return fmt.Errorf("epg: nil graph")
	}
	return g.el.Validate()
}
