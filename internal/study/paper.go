package study

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/all"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/graphalytics"
	"github.com/hpcl-repro/epg/internal/harness"
)

// claim is one of the paper's §V findings, held to the model.
type claim struct {
	source string // repo-relative file:line of the text paper quotes
	name   string
	paper  string // the paper's value or order, verbatim from source
	reason string // why the claim does not hold at the pinned scale; "" if it must
	test   func(*runs) (model string, holds bool)

	model, verdict string // what a Run made of it
}

const paperPin = "kron-14"

// Paper is FIG_paper_claims.csv, the paper-claims ledger: per finding the
// repo text quoted for its paper value, the model's value and a verdict,
// "holds" or "gap: <reason>". Pinned where the paper's tables were printed
// before it (kron-14 at seed 1, 32 modeled threads, real-world analogues
// at divisor 128), a Run fails naming every claim without a reason that
// does not hold (a silent gap) and every claim with one that holds (a
// stale gap). Elsewhere (`-dataset kron-18`) it prints the verdicts, so a
// scale reason can be confirmed. Drift means an engine's charges, a phase
// split, the power calibration or the Graphalytics accounting moved.
// Figs. 5–6 have no row: no text in the repo gives their paper values.
var Paper = declare("paper", "FIG_paper_claims.csv", paperPin, 1,
	[]Column[claim]{
		{"source", func(c *claim) any { return c.source }, false},
		{"claim", func(c *claim) any { return c.name }, false},
		{"paper", func(c *claim) any { return c.paper }, false},
		{"model", func(c *claim) any { return c.model }, false},
		{"verdict", func(c *claim) any { return c.verdict }, false},
	}, ledgerRows)

var claims = []claim{
	{source: "ARCHITECTURE.md:206", name: "Fig. 2: Graph500's build dominates its BFS", paper: "construction dominates Graph500 and GraphMat",
		reason: "model gap: its top-down BFS examines every edge as its build does and stays above it (build/BFS 0.29 at kron-14 and 0.68 at kron-20)",
		test:   func(p *runs) (string, bool) { return dominates(of(p.bfs, all.Graph500), "BFS") }},
	{source: "ARCHITECTURE.md:206", name: "Fig. 3: GraphMat's build dominates its SSSP", paper: "construction dominates Graph500 and GraphMat",
		reason: "model gap: its SpMV Bellman-Ford runs 14 to 17 times its build from kron-14 to kron-20",
		test:   func(p *runs) (string, bool) { return dominates(p.sssp, "SSSP") }},
	{source: "internal/engines/graphmat/doc.go:22", name: "Fig. 2: GraphMat's build is the slowest", paper: "the slowest of the systems in Fig. 2",
		test: func(p *runs) (string, bool) {
			return rank(of(p.bfs, all.Graph500, all.GAP, all.GraphMat), all.GraphMat, false, build, "%.3g ms")
		}},
	{source: "internal/engines/graphmat/doc.go:20", name: "Fig. 4: GraphMat runs the most PageRank iterations", paper: "GraphMat's iteration count highest",
		test: func(p *runs) (string, bool) { return rank(p.pr, all.GraphMat, false, iterations, "%.0f") }},
	{source: "internal/engines/powergraph/doc.go:20", name: "Fig. 8: PowerGraph has no BFS", paper: "Fig. 8's BFS panel omits PowerGraph",
		test: func(p *runs) (string, bool) {
			model, _ := rank(p.dota, all.GAP, true, kernel, "%.3g ms")
			return "BFS on dota-league: " + model, len(p.dota) > 0 && len(of(p.dota, all.PowerGraph)) == 0
		}},
	{source: "internal/datasets/datasets.go:17", name: "Table I: SSSP is N/A on cit-Patents", paper: "SSSP N/A in Table I",
		test: func(p *runs) (string, bool) {
			return "N/A on " + strings.Join(p.citNA, " "), len(p.citNA) == len(graphalytics.Platforms)
		}},
	{source: "internal/graphalytics/graphalytics.go:9", name: "Table I: GraphMat's reported time includes the file read and GraphBIG's does not",
		paper: "includes reading the input file from disk",
		test: func(p *runs) (string, bool) {
			gm, gb := p.citPR[all.GraphMat], p.citPR[all.GraphBIG]
			return fmt.Sprintf("PR on cit-Patents: GraphMat reports %.3g ms with a %.3g ms read; GraphBIG %.3g ms for a %.3g ms kernel",
					1e3*gm.Seconds, 1e3*gm.FileReadSec, 1e3*gb.Seconds, 1e3*gb.AlgorithmSec),
				gm.FileReadSec > 0 && gm.Seconds >= gm.FileReadSec+gm.AlgorithmSec && gb.Seconds == gb.AlgorithmSec
		}},
	{source: "internal/power/power.go:13", name: "Table III: idle draws about 24.7 W", paper: "≈ 24.7 W",
		test: func(p *runs) (string, bool) { return fmt.Sprintf("%.3g W", p.sleepW), approx(p.sleepW, 24.7) }},
	{source: "ARCHITECTURE.md:724", name: "Table III / Fig. 9: busy BFS draws 60-110 W", paper: "busy BFS in the observed 60–110 W",
		reason: "scale: BFS keeps few of 32 lanes busy at kron-14; the mean is 71 W at kron-18 and 79 W at kron-20",
		test: func(p *runs) (string, bool) {
			w := mean(p.bfs, func(r core.Result) float64 { return r.AvgCPUWatts })
			return fmt.Sprintf("mean package draw %.3g W", w), w >= 60 && w <= 110
		}},
	{source: "internal/engines/gap/doc.go:2", name: "Table III: GAP's BFS is the fastest of the four engines", paper: "the best-performing system",
		test: func(p *runs) (string, bool) { return rank(p.bfs, all.GAP, true, kernel, "%.3g ms") }},
	{source: "internal/engines/gap/doc.go:3", name: "Table III: GraphBIG's BFS takes about 85 times GAP's at scale 22", paper: "GraphBIG's BFS ~85x slower at scale 22",
		reason: "scale: the ratio grows with the graph (13.4x at kron-16; 32.5x at kron-18; 81.5x at kron-20)",
		test: func(p *runs) (string, bool) {
			x := mean(of(p.bfs, all.GraphBIG), kernel) / mean(of(p.bfs, all.GAP), kernel)
			return fmt.Sprintf("%.3gx", x), approx(x, 85)
		}},
	{source: "internal/engines/gap/doc.go:11", name: "GAP's direction optimization examines fewer edges than Graph500's top-down BFS",
		paper: "the design choice behind GAP's BFS win",
		test: func(p *runs) (string, bool) {
			return rank(of(p.bfs, all.Graph500, all.GAP), all.GAP, true, edges, "%.0f edges")
		}},
}

// runs is what the claims read: runs on one Runner and, for Table I, the
// Graphalytics comparator's cells, where its accounting lives.
type runs struct {
	bfs, sssp, pr []core.Result // on the pinned graph; SSSP GraphMat's alone, as chaotic ones vary by schedule
	dota          []core.Result // BFS on dota-league
	citNA         []string      // platforms whose SSSP cell on cit-Patents is N/A
	citPR         map[string]graphalytics.Cell
	sleepW        float64
}

func ledgerRows(el *graph.EdgeList, dataset string) ([]claim, error) {
	r := harness.NewRunner(all.Registry())
	p := runs{citPR: map[string]graphalytics.Cell{}, sleepW: r.Power.SleepWatts()}
	realWorld := harness.DatasetOptions{Seed: 1, RealWorldDivisor: 128}
	dota, err := harness.ResolveDataset("dota-league", realWorld)
	cit, e := harness.ResolveDataset("cit-Patents", realWorld)
	if err = cmp.Or(err, e); err != nil {
		return nil, err
	}
	run := func(el *graph.EdgeList, spec core.Spec) (rs []core.Result) {
		if err == nil { // the runs after a failure are skipped
			spec.Threads, spec.Seed = 32, 1
			rs, err = r.Run(spec, el)
		}
		return rs
	}
	p.bfs = run(el, core.Spec{Dataset: dataset, Algorithm: engines.BFS, Roots: 8, MeasurePower: true})
	p.sssp = run(el, core.Spec{Dataset: dataset, Algorithm: engines.SSSP, Engines: []string{all.GraphMat}, Roots: 8})
	p.pr = run(el, core.Spec{Dataset: dataset, Algorithm: engines.PageRank, Roots: 2})
	p.dota = run(dota, core.Spec{Dataset: "dota-league", Algorithm: engines.BFS, Roots: 1})
	cells, e := graphalytics.New(all.Registry()).RunDataset("cit-Patents", cit)
	if err = cmp.Or(err, e); err != nil {
		return nil, err
	}
	for _, c := range cells {
		if c.Algorithm == engines.SSSP && c.NA {
			p.citNA = append(p.citNA, c.Platform)
		} else if c.Algorithm == engines.PageRank {
			p.citPR[c.Platform] = c
		}
	}
	var rows []claim
	var errs []error
	for _, c := range claims {
		var holds bool
		c.model, holds = c.test(&p)
		c.verdict = map[bool]string{true: "holds", false: "fails"}[holds]
		if !holds && c.reason != "" {
			c.verdict = "gap: " + c.reason
		}
		if dataset == paperPin && holds == (c.reason != "") {
			kind := map[bool]string{true: "stale gap: it holds but declares a reason", false: "silent gap: it fails and declares no reason"}
			errs = append(errs, fmt.Errorf("%q is a %s (model: %s)", c.name, kind[holds], c.model))
		}
		rows = append(rows, c)
	}
	return rows, errors.Join(errs...)
}

// of is the runs of the named engines.
func of(rs []core.Result, engines ...string) []core.Result {
	return slices.DeleteFunc(slices.Clone(rs), func(r core.Result) bool { return !slices.Contains(engines, r.Engine) })
}

// dominates compares an engine's build with its mean kernel time.
func dominates(rs []core.Result, kernelName string) (string, bool) {
	b, k := mean(rs, build), mean(rs, kernel)
	return fmt.Sprintf("build %.3g ms vs %s %.3g ms", b, kernelName, k), b > k
}

// rank lists each engine's mean value; it holds when top's is strictly the least (or greatest).
func rank(rs []core.Result, top string, least bool, value func(core.Result) float64, format string) (string, bool) {
	var parts []string
	holds := len(of(rs, top)) > 0
	for _, e := range all.Names {
		if len(of(rs, e)) > 0 {
			v, t := mean(of(rs, e), value), mean(of(rs, top), value)
			parts = append(parts, e+" "+fmt.Sprintf(format, v))
			holds = holds && (e == top || least && v > t || !least && v < t)
		}
	}
	return strings.Join(parts, " "), holds
}

func mean(rs []core.Result, f func(core.Result) float64) (s float64) {
	for _, r := range rs {
		s += f(r)
	}
	return s / float64(len(rs))
}

func build(r core.Result) float64      { return 1e3 * r.ConstructionSec }
func kernel(r core.Result) float64     { return 1e3 * r.AlgorithmSec }
func iterations(r core.Result) float64 { return float64(r.Iterations) }
func edges(r core.Result) float64      { return float64(r.EdgesExamined) }

func approx(v, paper float64) bool { return math.Abs(v-paper) <= 0.1*paper } // the paper's "≈": within 10 %
