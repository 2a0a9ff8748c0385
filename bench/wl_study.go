package main

import (
	"bytes"
	"fmt"
	"math"

	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/all"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/harness"
	"github.com/hpcl-repro/epg/internal/logfmt"
)

// Schedule constants of the study workload.
const (
	studyScale       = 10
	studyRoots       = 2
	studySweepTrials = 2
)

var (
	studyAlgs         = []engines.Algorithm{engines.BFS, engines.SSSP, engines.PageRank}
	studySweepThreads = []int{1, 8, 72}
	studyMutations    = core.MutationSchedule{Batches: 2, BatchSize: 64, DeleteFrac: 0.25}
)

// studyConfigs are the four knob settings every algorithm runs under.
// SyncSSSP is on throughout: only the synchronous SSSP's modeled time
// repeats, and the rounds are checked bit-equal.
func studyConfigs() []core.Spec {
	return []core.Spec{
		{Threads: 32, MeasurePower: true},
		{Threads: 72, Sockets: 2, Sched: core.SchedNUMA, Placement: core.PlacementFirstTouch, Grain: core.GrainAdaptive},
		{Threads: 32, Compress: true, Nodes: 4, Partition: core.Partition2D},
		{Threads: 32, FreqState: core.FreqPowersave},
	}
}

type studyWL struct {
	scale   int
	seed    uint64
	graph   uint64 // the instance seed
	dataset string
	el      *graph.EdgeList
	runner  *harness.Runner
	specs   []core.Spec
	// wantResults is the number of result rows a round must produce,
	// worked out from the engines' own Has tables.
	wantResults int
}

func newStudyWL(cfg config) *studyWL {
	scale := studyScale - cfg.scaleDelta
	return &studyWL{scale: scale, seed: cfg.seed, graph: cfg.instance(), dataset: fmt.Sprintf("kron-%d", scale)}
}

func (w *studyWL) name() string     { return "study" }
func (w *studyWL) headline() string { return "harness.run" }
func (w *studyWL) finish(*rec)      {}

func (w *studyWL) setup(l *lane) error {
	h := l.begin("harness", "harness.resolve_dataset")
	el, err := harness.ResolveDataset(w.dataset, harness.DatasetOptions{Seed: w.graph})
	l.end(h)
	if err != nil {
		return err
	}
	w.el = el
	w.runner = harness.NewRunner(all.Registry())
	w.specs = w.specs[:0]
	w.wantResults = 0
	for _, alg := range studyAlgs {
		supporting := 0
		for _, name := range all.Names {
			eng, err := all.New(name)
			if err != nil {
				return err
			}
			if eng.Has(alg) {
				supporting++
			}
		}
		for _, s := range studyConfigs() {
			s.Dataset, s.Algorithm, s.Roots, s.Seed, s.SyncSSSP = w.dataset, alg, studyRoots, w.seed, true
			w.specs = append(w.specs, s)
			w.wantResults += supporting * studyRoots
		}
	}
	// The streaming run: baseline trials plus one row per batch.
	w.wantResults += studyRoots + studyMutations.Batches
	// One warm call, so the first timed pass does not pay the parallel
	// pool's goroutine start-up.
	_, err = w.runner.Run(w.specs[0], w.el)
	return err
}

func (w *studyWL) close() { w.el, w.runner, w.specs = nil, nil, nil }

func (w *studyWL) round(r *rec) {
	var results []core.Result
	for _, s := range w.specs {
		var rs []core.Result
		r.op("harness", "harness.run", func() (err error) {
			rs, err = w.runner.Run(s, w.el)
			return err
		})
		results = append(results, rs...)
	}

	ms := studyMutations
	ms.Seed = w.seed
	stream := core.Spec{Dataset: w.dataset, Algorithm: engines.WCC, Engines: []string{all.GAP},
		Threads: 32, Roots: studyRoots, Seed: w.seed, Mutations: &ms}
	r.op("harness", "harness.stream_run", func() error {
		rs, err := w.runner.Run(stream, w.el)
		results = append(results, rs...)
		return err
	})

	sweep := core.Spec{Dataset: w.dataset, Algorithm: engines.BFS, Threads: 1, Seed: w.seed}
	var points []harness.SweepPoint
	r.op("harness", "harness.sweep", func() (err error) {
		points, err = w.runner.Sweep(sweep, w.el, studySweepThreads, studySweepTrials)
		return err
	})
	// Sweep collects per-engine points through a map: fold them
	// order-independently.
	var sweepSum uint64
	for _, p := range points {
		for _, s := range p.Seconds {
			sweepSum += math.Float64bits(s) ^ uint64(p.Threads)
		}
	}
	r.mix(sweepSum)

	if len(results) != w.wantResults {
		r.fail("harness.run", fmt.Errorf("%d result rows, want %d", len(results), w.wantResults))
	}
	var wall float64
	for _, res := range results {
		wall += res.WallSec
		// Modeled seconds and joules repeat bit for bit between rounds.
		r.mix(math.Float64bits(res.AlgorithmSec))
		r.mix(math.Float64bits(res.ConstructionSec))
		r.mix(math.Float64bits(res.MaintainSec))
		r.mix(math.Float64bits(res.CPUJoules))
	}
	r.val("harness.kernel_wall_s", wall)

	r.op("logfmt", "logfmt.roundtrip", func() error {
		for _, res := range results {
			var buf bytes.Buffer
			if err := logfmt.Emit(&buf, res); err != nil {
				return err
			}
			identity := core.Result{Engine: res.Engine, Dataset: res.Dataset, Algorithm: res.Algorithm,
				Threads: res.Threads, Trial: res.Trial, Root: res.Root}
			back, err := logfmt.Parse(&buf, identity)
			if err != nil {
				return err
			}
			// Logs print 5-6 decimals; the parse must land within that.
			if math.Abs(back.AlgorithmSec-res.AlgorithmSec) > 1e-5 {
				return fmt.Errorf("%s %s: parsed %.9f s, emitted %.9f s", res.Engine, res.Algorithm, back.AlgorithmSec, res.AlgorithmSec)
			}
		}
		return nil
	})
	r.val("logfmt.results", float64(len(results)))
}
