package harness

import (
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/logfmt"
	"github.com/hpcl-repro/epg/internal/power"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// Runner executes specs against a set of engines.
//
// A Run or Sweep reads the edge list's graph from graph's memo
// (graph.HomogenizeShared), which keeps the graph of the last list it
// was asked for, and, through it, what was derived from it (graph.Derive:
// the values of the last two params of each kind) — the engines'
// structures, the roots of each count and seed, and the cluster owner
// table — so a Run or Sweep over that edge list again, by this Runner
// or any other, replays only the modeled load and build, and a list
// edited in place is homogenized again. The Runner itself keeps one
// idle instance per engine, scratch only (no graph, no machine), with
// the engines.Results its trials write into (a row keeps only a count
// of a result, so each trial overwrites the last one's), and up
// to two idle machines (the two a Run holds at once: its engine's and
// the stream recompute's): a Run binds the instance and renews a machine
// (core.Spec.NewMachine) and gives both back, or makes its own while a
// concurrent Run holds them, so what stays is bounded by the largest run
// and no two Runs write into one result.
// Run and Sweep are safe for concurrent use; their writes to Warnings
// are serialized.
type Runner struct {
	Registry engines.Registry
	Model    simmachine.Model
	Power    power.Constants
	// Warnings, when non-nil, receives structured one-line warnings
	// about spec knobs an engine could not honor (logfmt key=value
	// style). Nil discards them — but a dropped knob means the result
	// row does not measure what the spec asked for, so study drivers
	// should wire this to stderr or a log.
	Warnings io.Writer

	warnMu sync.Mutex // serializes writes to Warnings
	mu     sync.Mutex
	idle   map[string]pooled
	idleM  []*simmachine.Machine // at most idleMachines
}

// pooled is an engine's idle instance and the results its trials write
// into, taken and given back together.
type pooled struct {
	inst engines.Instance
	dst  *engines.Results
}

// idleMachines is how many machines a Runner keeps.
const idleMachines = 2

// NewRunner returns a runner over the given registry with the paper's
// machine calibration.
func NewRunner(reg engines.Registry) *Runner {
	return &Runner{
		Registry: reg,
		Model:    simmachine.Haswell72(),
		Power:    power.DefaultConstants(),
		idle:     map[string]pooled{},
	}
}

// decls resolves the spec's engine list, defaulting to every registered
// engine that supports the algorithm.
func (r *Runner) decls(spec core.Spec) ([]*engines.Decl, error) {
	names := spec.Engines
	if len(names) == 0 {
		names = r.Registry.Names()
	}
	var out []*engines.Decl
	for _, name := range names {
		d, err := r.Registry.Decl(name)
		if err != nil {
			return nil, err
		}
		if d.Has(spec.Algorithm) {
			out = append(out, d)
		} else if len(spec.Engines) > 0 {
			// Explicitly requested but unsupported: surface it.
			return nil, fmt.Errorf("harness: %s does not implement %s", name, spec.Algorithm)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("harness: no engine supports %s", spec.Algorithm)
	}
	return out, nil
}

// Run executes the spec on the provided in-memory edge list and
// returns one result per (engine, root).
func (r *Runner) Run(spec core.Spec, el *graph.EdgeList) ([]core.Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	g, err := graph.HomogenizeShared(el)
	if err != nil {
		return nil, err
	}
	return r.run(spec, g)
}

// run is Run on a graph already homogenized: the one g is what root
// selection, the owner table, every engine and the first batch of a stream read.
func (r *Runner) run(spec core.Spec, g *graph.Simple) ([]core.Result, error) {
	decls, err := r.decls(spec)
	if err != nil {
		return nil, err
	}
	// Roots are selected once per graph, count and seed, and shared by
	// every engine — the paper uses the same 32 roots across systems
	// (and reuses BFS roots for SSSP).
	roots := selectRoots(g, spec.NumRoots(), spec.Seed)
	if len(roots) == 0 {
		return nil, fmt.Errorf("harness: graph has no roots with degree > 1")
	}
	owner := spec.Owners(g)

	rows := spec.NumRoots()
	if ms := spec.Mutations; ms != nil {
		rows += ms.Batches
	}
	results := make([]core.Result, 0, len(decls)*rows)
	for _, d := range decls {
		if results, err = r.runEngine(results, spec, g, d, roots, owner); err != nil {
			return nil, fmt.Errorf("harness: %s: %w", d.Name, err)
		}
	}
	return results, nil
}

// rootsKind derives a graph's roots per count and seed.
type rootsKind struct {
	count int
	seed  uint64
}

// selectRoots is core.SelectRoots on g.Out, the graph's own
// (graph.Derive): selected by the first run that asks for the count and
// seed, and read-only.
func selectRoots(g *graph.Simple, count int, seed uint64) []graph.VID {
	return graph.Derive(g, rootsKind{count, seed}, 0, func() []graph.VID { return core.SelectRoots(g.Out, count, seed) })
}

// runEngine executes all roots of one engine and appends their rows to
// results. owner is the per-vertex cluster owner table (nil for
// 1D/blocked or single-box specs).
func (r *Runner) runEngine(results []core.Result, spec core.Spec, g *graph.Simple, d *engines.Decl, roots []graph.VID, owner []int16) ([]core.Result, error) {
	// Dropped knobs are surfaced, not silent: a spec that asked for the
	// synchronous variant, the compressed layout or a streaming phase
	// and got the default would mislabel its results.
	opts, dropped := spec.EngineOptions(d)
	r.warnMu.Lock()
	for _, knob := range dropped {
		logfmt.EmitKnobWarning(r.Warnings, d.Name, knob)
	}
	r.warnMu.Unlock()
	m, pconsts := r.machine(spec, owner)
	defer r.giveMachine(m)
	p := r.take(d)
	defer r.give(d.Name, p) // unbinds the instance before m is given back
	inst := p.inst
	fileReadSec, constructionSec := Load(d, inst, opts, g, m)

	perTrial := func(trial int) (core.Result, error) {
		res := core.Result{
			Engine:          d.Name,
			Dataset:         spec.Dataset,
			Algorithm:       spec.Algorithm,
			Threads:         spec.Threads,
			Trial:           trial,
			Root:            roots[trial%len(roots)],
			FileReadSec:     fileReadSec,
			ConstructionSec: constructionSec,
			HasConstruction: d.SeparateConstruction,
		}
		var meter *power.RAPL
		if spec.MeasurePower {
			meter = power.NewRAPL(m, pconsts)
			meter.Start()
		}
		i0, t0 := m.Mark()
		wall0 := time.Now()
		out, err := engines.RunInto(inst, spec.Algorithm, res.Root, p.dst)
		if err != nil {
			return res, err
		}
		res.WallSec = time.Since(wall0).Seconds()
		i1, t1 := m.Mark()
		res.AlgorithmSec = t1 - t0
		if m.Tracing() {
			for _, reg := range m.Trace()[i0:i1] {
				res.NetBytes += reg.NetBytes
			}
		}
		if meter != nil {
			rd := meter.End()
			res.CPUJoules = rd.CPUJoules
			res.RAMJoules = rd.RAMJoules
			res.AvgCPUWatts = rd.AvgCPUWatts()
			res.AvgRAMWatts = rd.AvgRAMWatts()
		}
		switch v := out.(type) {
		case *engines.BFSResult:
			res.EdgesExamined = v.EdgesExamined
		case *engines.SSSPResult:
			res.EdgesExamined = v.Relaxations
		case *engines.PRResult:
			res.Iterations = v.Iterations
		case *engines.CDLPResult:
			res.Iterations = v.Iterations
		}
		return res, nil
	}

	// Trial count is spec.NumRoots() for every kernel, root-dependent
	// or not. The paper runs 32 repetitions per (system, algorithm,
	// dataset) across the board: for BFS/SSSP the repetitions are the
	// 32 distinct roots, while for root-independent kernels (LCC, WCC,
	// PageRank) the same count serves as plain variance repetitions.
	trials := spec.NumRoots()
	for trial := 0; trial < trials; trial++ {
		res, err := perTrial(trial)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	// Streaming phase: batched mutations with incremental maintenance,
	// conformance-checked against full recomputes. An engine that drops
	// the knob was warned about above and skips the phase; one that
	// declares it has instances that are Streamers.
	if opts.Mutations {
		return r.runStream(results, spec, d, opts, inst.(engines.Streamer), m, owner)
	}
	return results, nil
}

// take returns the engine's idle instance and results, or new ones
// while a concurrent Run holds them or none were given back yet.
func (r *Runner) take(d *engines.Decl) pooled {
	r.mu.Lock()
	p, ok := r.idle[d.Name]
	delete(r.idle, d.Name)
	r.mu.Unlock()
	if ok {
		return p
	}
	return pooled{d.New(), new(engines.Results)}
}

// give unbinds p's instance and keeps p, unless another Run gave one
// back first.
func (r *Runner) give(name string, p pooled) {
	p.inst.Bind(nil, nil, engines.Options{})
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.idle[name]; !ok {
		r.idle[name] = p
	}
}

// machine renews an idle machine for spec, or makes one while none is
// idle, and returns it with the power calibration of the spec's
// operating point.
func (r *Runner) machine(spec core.Spec, owner []int16) (*simmachine.Machine, power.Constants) {
	var m *simmachine.Machine
	r.mu.Lock()
	if n := len(r.idleM); n > 0 {
		m = r.idleM[n-1]
		r.idleM[n-1], r.idleM = nil, r.idleM[:n-1]
	}
	r.mu.Unlock()
	return spec.NewMachine(m, r.Model, r.Power, owner)
}

// giveMachine keeps m, no longer used, unless idleMachines are kept.
func (r *Runner) giveMachine(m *simmachine.Machine) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.idleM) < idleMachines {
		r.idleM = append(r.idleM, m)
	}
}

// Load binds inst, an instance of the engine d declares, to g and m with
// the knobs o (what d honors of a request: Spec.EngineOptions) and
// charges the paper's read and build phases (Fig. 1) to m: a text-edge
// file read and then the construction, or for an engine that builds
// while it reads, both as the read.
func Load(d *engines.Decl, inst engines.Instance, o engines.Options, g *graph.Simple, m *simmachine.Machine) (fileReadSec, constructionSec float64) {
	start := m.Elapsed()
	if d.SeparateConstruction {
		m.FileRead(int64(g.InputEdges)*engines.BytesPerTextEdge, true)
	}
	inst.Bind(g, m, o)
	read := m.Elapsed()
	inst.BuildStructure()
	if !d.SeparateConstruction {
		return m.Elapsed() - start, 0
	}
	return read - start, m.Elapsed() - read
}

// SweepPoint is one (engine, threads) aggregate of a scaling sweep.
type SweepPoint struct {
	Engine  string
	Threads int
	// Seconds per trial (modeled algorithm time).
	Seconds []float64
}

// Sweep measures the algorithm across thread counts for Figs. 5/6.
// Trials defaults to 4, matching the paper ("because of timing
// considerations, only four trials were run"). Points come thread count
// by thread count, each in the run's engine order.
func (r *Runner) Sweep(spec core.Spec, el *graph.EdgeList, threadCounts []int, trials int) ([]SweepPoint, error) {
	return sweep(spec, threadCounts, trials, func(s core.Spec) ([]core.Result, error) { return r.Run(s, el) })
}

// sweep is Sweep with run making each thread count's Run.
func sweep(spec core.Spec, threadCounts []int, trials int, run func(core.Spec) ([]core.Result, error)) ([]SweepPoint, error) {
	if trials <= 0 {
		trials = 4
	}
	var out []SweepPoint
	for _, tc := range threadCounts {
		s := spec
		s.Threads = tc
		s.Roots = trials
		rs, err := run(s)
		if err != nil {
			return nil, err
		}
		// Run returns each engine's results together.
		for i, res := range rs {
			if i == 0 || res.Engine != rs[i-1].Engine {
				out = append(out, SweepPoint{Engine: res.Engine, Threads: tc})
			}
			p := &out[len(out)-1]
			p.Seconds = append(p.Seconds, res.AlgorithmSec)
		}
	}
	return out, nil
}
