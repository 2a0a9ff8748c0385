// Determinism tests: the parallel runtime's contract is that kernel
// outputs and simmachine region durations depend only on the Spec —
// never on the goroutine schedule or the real worker count. Each case
// runs the same kernel twice at the same worker count and once per
// extra worker count, comparing outputs bitwise and modeled durations
// exactly.
//
// Scope: BFS and PageRank are fully deterministic in every engine
// (write-min claims, chunk-ordered/bitmap frontiers, chunk-ordered
// reductions), as
// are GraphMat's and PowerGraph's synchronous SSSP. GAP's
// delta-stepping and GraphBIG's relaxation default to their chaotic
// character (schedule-dependent work traces, as in the real systems)
// — for the defaults only the fixed-point distances are bit-compared
// — but their synchronous modes (Spec.SyncSSSP) join the full wall:
// parents, relaxation counts, and durations included. The
// work-stealing scheduler (Spec.Sched = "steal") is walled across all
// six kernels: bit-identical outputs and modeled durations at every
// worker count.
package all

import (
	"math"
	"os"
	"slices"
	"testing"

	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/harness"
	"github.com/hpcl-repro/epg/internal/kronecker"
	"github.com/hpcl-repro/epg/internal/parallel"
	"github.com/hpcl-repro/epg/internal/power"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// workerCounts exercises serial, oversubscribed, and (on multicore
// hosts) genuinely parallel execution. Counts above GOMAXPROCS are
// legal: goroutines are multiplexed.
var workerCounts = []int{1, 2, 4}

// kernelRun is one engine execution with its observables. The joules
// are the power model integrated over the run's region trace
// (power.MeasureTrace with the default calibration): a pure function
// of the modeled schedule, so the determinism walls pin them exactly
// like durations.
type kernelRun struct {
	durations []float64 // per-region modeled seconds, in order
	elapsed   float64
	cpuJoules float64
	ramJoules float64
	out       any
}

// runOpts tweaks a kernel run beyond the worker count.
type runOpts struct {
	syncSSSP  bool             // enable the synchronous SSSP modes
	sched     simmachine.Sched // machine-wide policy override
	override  bool             // apply sched
	sockets   int              // virtual sockets for the locality model (0 = default)
	adaptive  bool             // frontier-proportional grain policy
	placement bool             // first-touch page-placement model
	compress  bool             // delta+varint compressed adjacency (GAP, Graph500)
	nodes     int              // virtual cluster nodes (0/1 = single box)
	partition string           // cluster partition scheme ("1d" or "2d"), with nodes > 1
}

func runKernel(t *testing.T, name string, alg engines.Algorithm, el *graph.EdgeList, root graph.VID, workers int) kernelRun {
	t.Helper()
	return runKernelOpts(t, name, alg, el, root, workers, runOpts{})
}

func runKernelOpts(t *testing.T, name string, alg engines.Algorithm, el *graph.EdgeList, root graph.VID, workers int, opts runOpts) kernelRun {
	t.Helper()
	eng, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	engines.Configure(eng, engines.Options{SyncSSSP: opts.syncSSSP, Compress: opts.compress})
	m := simmachine.New(simmachine.Haswell72(), 8)
	m.SetWorkers(workers)
	if opts.override {
		m.SetSchedOverride(opts.sched)
	}
	if opts.sockets > 0 {
		m.SetSockets(opts.sockets)
	}
	if opts.adaptive {
		m.SetGrainPolicy(parallel.GrainAdaptive)
	}
	if opts.placement {
		m.SetPlacement(true)
	}
	if opts.nodes > 1 {
		var owner []int16
		if opts.partition == core.Partition2D {
			owner = clusterOwner(el, opts.nodes)
		}
		m.SetCluster(opts.nodes, owner)
	}
	inst, err := eng.Load(el, m)
	if err != nil {
		t.Fatalf("%s load: %v", name, err)
	}
	inst.BuildStructure()
	m.Reset()
	out, err := engines.RunAlgorithm(inst, alg, root)
	if err != nil {
		t.Fatalf("%s %s: %v", name, alg, err)
	}
	durations := make([]float64, 0, len(m.Trace()))
	for _, r := range m.Trace() {
		durations = append(durations, r.Seconds)
	}
	rd := power.DefaultConstants().MeasureTrace(m.Trace())
	return kernelRun{
		durations: durations, elapsed: m.Elapsed(),
		cpuJoules: rd.CPUJoules, ramJoules: rd.RAMJoules, out: out,
	}
}

func sameDurations(t *testing.T, label string, a, b kernelRun) {
	t.Helper()
	if a.elapsed != b.elapsed {
		t.Errorf("%s: modeled elapsed differs: %v vs %v", label, a.elapsed, b.elapsed)
	}
	if math.Float64bits(a.cpuJoules) != math.Float64bits(b.cpuJoules) ||
		math.Float64bits(a.ramJoules) != math.Float64bits(b.ramJoules) {
		t.Errorf("%s: modeled joules differ: (%v cpu, %v ram) vs (%v cpu, %v ram)",
			label, a.cpuJoules, a.ramJoules, b.cpuJoules, b.ramJoules)
	}
	if len(a.durations) != len(b.durations) {
		t.Errorf("%s: region count differs: %d vs %d", label, len(a.durations), len(b.durations))
		return
	}
	for i := range a.durations {
		if a.durations[i] != b.durations[i] {
			t.Errorf("%s: region %d duration %v vs %v", label, i, a.durations[i], b.durations[i])
			return
		}
	}
}

func sameInt64s(t *testing.T, label string, a, b []int64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("%s: index %d: %d vs %d", label, i, a[i], b[i])
			return
		}
	}
}

func sameFloat64sBitwise(t *testing.T, label string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Errorf("%s: index %d: %x vs %x", label, i, math.Float64bits(a[i]), math.Float64bits(b[i]))
			return
		}
	}
}

func determinismGraph() (*graph.EdgeList, graph.VID) {
	el := kronecker.Generate(kronecker.Params{Scale: 10, Seed: 42})
	return el, 2 // any reachable root works; keep it fixed
}

func TestBFSDeterministicAcrossRunsAndWorkers(t *testing.T) {
	el, root := determinismGraph()
	for _, name := range []string{Graph500, GAP, GraphBIG, GraphMat} {
		t.Run(name, func(t *testing.T) {
			base := runKernel(t, name, engines.BFS, el, root, workerCounts[0])
			ref := base.out.(*engines.BFSResult)
			for _, workers := range workerCounts {
				for rep := 0; rep < 2; rep++ {
					got := runKernel(t, name, engines.BFS, el, root, workers)
					res := got.out.(*engines.BFSResult)
					sameInt64s(t, "parent", ref.Parent, res.Parent)
					sameInt64s(t, "depth", ref.Depth, res.Depth)
					if ref.EdgesExamined != res.EdgesExamined {
						t.Errorf("edges examined %d vs %d", ref.EdgesExamined, res.EdgesExamined)
					}
					sameDurations(t, "bfs", base, got)
				}
			}
		})
	}
}

func TestPageRankDeterministicAcrossRunsAndWorkers(t *testing.T) {
	el, _ := determinismGraph()
	for _, name := range []string{GAP, GraphBIG, GraphMat, PowerGraph} {
		t.Run(name, func(t *testing.T) {
			base := runKernel(t, name, engines.PageRank, el, 0, workerCounts[0])
			ref := base.out.(*engines.PRResult)
			for _, workers := range workerCounts {
				got := runKernel(t, name, engines.PageRank, el, 0, workers)
				res := got.out.(*engines.PRResult)
				if ref.Iterations != res.Iterations {
					t.Errorf("iterations %d vs %d", ref.Iterations, res.Iterations)
				}
				sameFloat64sBitwise(t, "rank", ref.Rank, res.Rank)
				sameDurations(t, "pr", base, got)
			}
		})
	}
}

func TestSSSPDeterministicAcrossRunsAndWorkers(t *testing.T) {
	el, root := determinismGraph()
	// Synchronous engines: everything is deterministic, durations
	// included. Chaotic engines (GAP delta-stepping, GraphBIG): the
	// fixed-point distances are deterministic, the work trace is not.
	sync := map[string]bool{GraphMat: true, PowerGraph: true}
	for _, name := range []string{GAP, GraphBIG, GraphMat, PowerGraph} {
		t.Run(name, func(t *testing.T) {
			base := runKernel(t, name, engines.SSSP, el, root, workerCounts[0])
			ref := base.out.(*engines.SSSPResult)
			for _, workers := range workerCounts {
				got := runKernel(t, name, engines.SSSP, el, root, workers)
				res := got.out.(*engines.SSSPResult)
				sameFloat64sBitwise(t, "dist", ref.Dist, res.Dist)
				if sync[name] {
					sameInt64s(t, "parent", ref.Parent, res.Parent)
					if ref.Relaxations != res.Relaxations {
						t.Errorf("relaxations %d vs %d", ref.Relaxations, res.Relaxations)
					}
					sameDurations(t, "sssp", base, got)
				}
			}
		})
	}
}

// Every engine's WCC is Jacobi: a round reads the labels of the round
// before and writes another array (GAP's and GraphBIG's traverse.Hook,
// GraphMat's comp, PowerGraph's comp through the accC gather), so no
// chunk sees a label another chunk lowered in the same round, and
// neither the labels nor the number of rounds can depend on the
// schedule. GAP's pointer jump after each round is in place, but every
// schedule leaves each vertex at the root of its chain. The wall runs
// each engine 200 times on kron-13 (seed 1, 32 threads, where an
// in-place hook's race showed about once in a few hundred runs),
// cycling the worker counts: every run's trace has the first run's
// length — the trip count times the fixed regions per round — and
// equals it region for region, and so do the labels. Under the race
// detector, which looks for data races, not for schedules, it runs a
// tenth as many.
func TestWCCTraceRepeats(t *testing.T) {
	runs := 200
	if raceEnabled {
		runs /= 10
	}
	g, err := graph.Homogenize(kronecker.Generate(kronecker.Params{Scale: 13, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{GAP, GraphBIG, GraphMat, PowerGraph} {
		t.Run(name, func(t *testing.T) {
			insts := make([]engines.Instance, len(workerCounts))
			machines := make([]*simmachine.Machine, len(workerCounts))
			for i, workers := range workerCounts {
				eng, err := New(name)
				if err != nil {
					t.Fatal(err)
				}
				machines[i] = simmachine.New(simmachine.Haswell72(), 32)
				machines[i].SetWorkers(workers)
				insts[i] = eng.LoadSimple(g, machines[i])
				insts[i].BuildStructure()
			}
			var trace []simmachine.Region
			var comp []graph.VID
			for run := 0; run < runs; run++ {
				i := run % len(workerCounts)
				m := machines[i]
				m.Reset()
				res, err := insts[i].WCC()
				if err != nil {
					t.Fatal(err)
				}
				if run == 0 {
					trace, comp = slices.Clone(m.Trace()), res.Component
					continue
				}
				got := m.Trace()
				if len(got) != len(trace) {
					t.Fatalf("workers=%d run %d: %d regions, the first run %d: the trip count moved", workerCounts[i], run, len(got), len(trace))
				}
				for r := range got {
					if got[r] != trace[r] {
						t.Fatalf("workers=%d run %d: region %d is %+v, in the first run %+v", workerCounts[i], run, r, got[r], trace[r])
					}
				}
				if !slices.Equal(res.Component, comp) {
					t.Fatalf("workers=%d run %d: components differ from the first run", workerCounts[i], run)
				}
			}
		})
	}
}

// TestSpecDurationsDeterministic runs the same harness Spec end to end
// twice and across worker counts: every per-trial modeled measurement
// must be identical (the paper's figures are functions of the Spec,
// not of the host's scheduler).
func TestSpecDurationsDeterministic(t *testing.T) {
	el := kronecker.Generate(kronecker.Params{Scale: 9, Seed: 7})
	r := harness.NewRunner(Registry())
	for _, alg := range []engines.Algorithm{engines.BFS, engines.PageRank} {
		spec := func(workers int) ([]float64, []float64) {
			s, err := r.Run(coreSpec(alg, workers), el)
			if err != nil {
				t.Fatal(err)
			}
			algSec := make([]float64, len(s))
			consSec := make([]float64, len(s))
			for i, res := range s {
				algSec[i] = res.AlgorithmSec
				consSec[i] = res.ConstructionSec
			}
			return algSec, consSec
		}
		baseAlg, baseCons := spec(1)
		for _, workers := range []int{1, 2, 4} {
			for rep := 0; rep < 2; rep++ {
				gotAlg, gotCons := spec(workers)
				sameFloat64sBitwise(t, string(alg)+" algorithm seconds", baseAlg, gotAlg)
				sameFloat64sBitwise(t, string(alg)+" construction seconds", baseCons, gotCons)
			}
		}
	}
}

func coreSpec(alg engines.Algorithm, workers int) core.Spec {
	return core.Spec{
		Dataset:   "determinism",
		Algorithm: alg,
		Threads:   8,
		Workers:   workers,
		Roots:     3,
		Seed:      5,
	}
}

func sameVIDs(t *testing.T, label string, a, b []graph.VID) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("%s: index %d: %d vs %d", label, i, a[i], b[i])
			return
		}
	}
}

// sameOutputs bit-compares two kernel outputs of the same type.
func sameOutputs(t *testing.T, label string, ref, got any) {
	t.Helper()
	switch r := ref.(type) {
	case *engines.BFSResult:
		g := got.(*engines.BFSResult)
		sameInt64s(t, label+" parent", r.Parent, g.Parent)
		sameInt64s(t, label+" depth", r.Depth, g.Depth)
		if r.EdgesExamined != g.EdgesExamined {
			t.Errorf("%s: edges examined %d vs %d", label, r.EdgesExamined, g.EdgesExamined)
		}
	case *engines.SSSPResult:
		g := got.(*engines.SSSPResult)
		sameFloat64sBitwise(t, label+" dist", r.Dist, g.Dist)
		sameInt64s(t, label+" parent", r.Parent, g.Parent)
		if r.Relaxations != g.Relaxations {
			t.Errorf("%s: relaxations %d vs %d", label, r.Relaxations, g.Relaxations)
		}
	case *engines.PRResult:
		g := got.(*engines.PRResult)
		sameFloat64sBitwise(t, label+" rank", r.Rank, g.Rank)
		if r.Iterations != g.Iterations {
			t.Errorf("%s: iterations %d vs %d", label, r.Iterations, g.Iterations)
		}
	case *engines.CDLPResult:
		g := got.(*engines.CDLPResult)
		sameVIDs(t, label+" label", r.Label, g.Label)
		if r.Iterations != g.Iterations {
			t.Errorf("%s: iterations %d vs %d", label, r.Iterations, g.Iterations)
		}
	case *engines.LCCResult:
		g := got.(*engines.LCCResult)
		sameFloat64sBitwise(t, label+" coeff", r.Coeff, g.Coeff)
	case *engines.WCCResult:
		g := got.(*engines.WCCResult)
		sameVIDs(t, label+" component", r.Component, g.Component)
	default:
		t.Fatalf("%s: unknown result type %T", label, ref)
	}
}

// TestSyncSSSPJoinsDeterminismWall is the ROADMAP follow-up: with the
// synchronous modes enabled, GAP's delta-stepping and GraphBIG's
// relaxation are fully deterministic — distances, parents, relaxation
// counts, AND modeled durations — across runs and worker counts.
func TestSyncSSSPJoinsDeterminismWall(t *testing.T) {
	el, root := determinismGraph()
	opts := runOpts{syncSSSP: true}
	for _, name := range []string{GAP, GraphBIG} {
		t.Run(name, func(t *testing.T) {
			base := runKernelOpts(t, name, engines.SSSP, el, root, workerCounts[0], opts)
			for _, workers := range workerCounts {
				for rep := 0; rep < 2; rep++ {
					got := runKernelOpts(t, name, engines.SSSP, el, root, workers, opts)
					sameOutputs(t, "sync sssp", base.out, got.out)
					sameDurations(t, "sync sssp", base, got)
				}
			}
		})
	}
}

// TestSchedStealDeterministicAllKernels is the work-stealing wall:
// under the Steal policy override (with synchronous SSSP, so every
// engine qualifies) all six kernels produce bit-identical outputs and
// modeled durations at 1/2/4 workers for every engine that implements
// them.
func TestSchedStealDeterministicAllKernels(t *testing.T) {
	el, root := determinismGraph()
	opts := runOpts{syncSSSP: true, sched: simmachine.Steal, override: true}
	for _, alg := range engines.AllAlgorithms {
		t.Run(string(alg), func(t *testing.T) {
			for _, name := range Names {
				eng, err := New(name)
				if err != nil {
					t.Fatal(err)
				}
				if !eng.Has(alg) {
					continue
				}
				t.Run(name, func(t *testing.T) {
					base := runKernelOpts(t, name, alg, el, root, workerCounts[0], opts)
					for _, workers := range workerCounts {
						got := runKernelOpts(t, name, alg, el, root, workers, opts)
						sameOutputs(t, "steal", base.out, got.out)
						sameDurations(t, "steal", base, got)
					}
				})
			}
		})
	}
}

// TestSpecSchedKnobEndToEnd drives the harness with the new Spec
// knobs: per-trial modeled measurements under Sched="steal" +
// SyncSSSP must be identical across worker counts, and an unknown
// policy must be rejected.
func TestSpecSchedKnobEndToEnd(t *testing.T) {
	el := kronecker.Generate(kronecker.Params{Scale: 9, Seed: 7})
	r := harness.NewRunner(Registry())
	run := func(workers int) []float64 {
		spec := coreSpec(engines.SSSP, workers)
		spec.Sched = core.SchedSteal
		spec.SyncSSSP = true
		rs, err := r.Run(spec, el)
		if err != nil {
			t.Fatal(err)
		}
		secs := make([]float64, len(rs))
		for i, res := range rs {
			secs[i] = res.AlgorithmSec
		}
		return secs
	}
	base := run(1)
	for _, workers := range []int{2, 4} {
		sameFloat64sBitwise(t, "steal spec seconds", base, run(workers))
	}

	bad := coreSpec(engines.BFS, 1)
	bad.Sched = "fifo"
	if _, err := r.Run(bad, el); err == nil {
		t.Error("unknown scheduling policy accepted")
	}
}

// TestSchedNUMADeterministicAllKernels is the two-level work-stealing
// wall: under the NUMA policy override (with synchronous SSSP, so
// every engine qualifies) all six kernels produce bit-identical
// outputs and modeled durations across runs and worker counts at
// every socket count — and the *outputs* are additionally identical
// across socket counts, since the locality model may only move
// modeled time, never results.
func TestSchedNUMADeterministicAllKernels(t *testing.T) {
	el, root := determinismGraph()
	for _, alg := range engines.AllAlgorithms {
		t.Run(string(alg), func(t *testing.T) {
			for _, name := range Names {
				eng, err := New(name)
				if err != nil {
					t.Fatal(err)
				}
				if !eng.Has(alg) {
					continue
				}
				t.Run(name, func(t *testing.T) {
					var acrossSockets any
					for _, sockets := range []int{1, 2, 4} {
						opts := runOpts{syncSSSP: true, sched: simmachine.NUMA, override: true, sockets: sockets}
						base := runKernelOpts(t, name, alg, el, root, workerCounts[0], opts)
						if acrossSockets == nil {
							acrossSockets = base.out
						} else {
							sameOutputs(t, "numa outputs across sockets", acrossSockets, base.out)
						}
						for _, workers := range workerCounts {
							got := runKernelOpts(t, name, alg, el, root, workers, opts)
							sameOutputs(t, "numa", base.out, got.out)
							sameDurations(t, "numa", base, got)
						}
					}
				})
			}
		})
	}
}

// TestNUMASocketsOneMatchesSteal: with one virtual socket the NUMA
// policy must be byte-identical to plain Steal — outputs AND modeled
// durations — for every kernel and engine. This pins the contract
// that the locality model is a strict extension: it only diverges
// when Spec.Sockets asks for more than one socket.
func TestNUMASocketsOneMatchesSteal(t *testing.T) {
	el, root := determinismGraph()
	for _, alg := range engines.AllAlgorithms {
		t.Run(string(alg), func(t *testing.T) {
			for _, name := range Names {
				eng, err := New(name)
				if err != nil {
					t.Fatal(err)
				}
				if !eng.Has(alg) {
					continue
				}
				t.Run(name, func(t *testing.T) {
					steal := runKernelOpts(t, name, alg, el, root, 2,
						runOpts{syncSSSP: true, sched: simmachine.Steal, override: true})
					numa := runKernelOpts(t, name, alg, el, root, 2,
						runOpts{syncSSSP: true, sched: simmachine.NUMA, override: true, sockets: 1})
					sameOutputs(t, "numa vs steal", steal.out, numa.out)
					sameDurations(t, "numa vs steal", steal, numa)
				})
			}
		})
	}
}

// TestSpecNUMAKnobEndToEnd drives the harness with the locality
// knobs: per-trial modeled measurements under Sched="numa" must be
// identical across worker counts at every socket count; Spec.Sockets
// must reach the steal simulation (sockets=4 changes at least one
// trial's modeled seconds relative to sockets=1 — the cross-socket
// penalty is live end-to-end); and malformed specs are rejected.
// (The RemotePenalty *byte* multiplier only moves durations on
// memory-bound regions, which these small-graph kernels are not; its
// effect is pinned at the machine layer by
// simmachine.TestSetRemotePenaltyOverridesModel, and here we assert
// the knob keeps worker-independence and changes nothing at
// sockets=1.)
func TestSpecNUMAKnobEndToEnd(t *testing.T) {
	el := kronecker.Generate(kronecker.Params{Scale: 9, Seed: 7})
	r := harness.NewRunner(Registry())
	run := func(workers, sockets int, remotePenalty float64) []float64 {
		spec := coreSpec(engines.SSSP, workers)
		spec.Sched = core.SchedNUMA
		spec.SyncSSSP = true
		spec.Sockets = sockets
		spec.RemotePenalty = remotePenalty
		rs, err := r.Run(spec, el)
		if err != nil {
			t.Fatal(err)
		}
		secs := make([]float64, len(rs))
		for i, res := range rs {
			secs[i] = res.AlgorithmSec
		}
		return secs
	}
	perSocket := map[int][]float64{}
	for _, sockets := range []int{1, 2, 4} {
		base := run(1, sockets, 0)
		perSocket[sockets] = base
		for _, workers := range []int{2, 4} {
			sameFloat64sBitwise(t, "numa spec seconds", base, run(workers, sockets, 0))
		}
	}
	// Spec.Sockets must actually reach the simulation: at 4 sockets
	// some steals cross and their CAS penalties shift modeled time.
	if slices.Equal(perSocket[1], perSocket[4]) {
		t.Error("sockets=4 modeled seconds identical to sockets=1: Spec.Sockets not reaching the steal simulation")
	}
	// The penalty knob must stay worker-independent, and with one
	// socket there is nothing remote for it to scale.
	stiff := run(1, 4, 3)
	sameFloat64sBitwise(t, "stiff penalty seconds", stiff, run(4, 4, 3))
	sameFloat64sBitwise(t, "penalty at one socket", perSocket[1], run(1, 1, 3))

	bad := coreSpec(engines.BFS, 1)
	bad.Sockets = -1
	if _, err := r.Run(bad, el); err == nil {
		t.Error("negative socket count accepted")
	}
	bad = coreSpec(engines.BFS, 1)
	bad.RemotePenalty = 0.5
	if _, err := r.Run(bad, el); err == nil {
		t.Error("sub-unity remote penalty accepted")
	}
}

// TestBigNUMASweep is the long locality sweep, gated like the kron-18
// conformance wall (a measurement-grade run, not a tier-1 gate): a
// larger graph, more worker counts, repeated runs. Run via
// `make numa-sweep`.
func TestBigNUMASweep(t *testing.T) {
	if os.Getenv("EPG_NUMA_SWEEP") == "" {
		t.Skip("set EPG_NUMA_SWEEP=1 (make numa-sweep) to run the long NUMA determinism sweep")
	}
	el := kronecker.Generate(kronecker.Params{Scale: 12, Seed: 42})
	root := graph.VID(2)
	for _, alg := range engines.AllAlgorithms {
		for _, name := range Names {
			eng, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			if !eng.Has(alg) {
				continue
			}
			if alg == engines.LCC {
				// Quadratic in hub degree at this scale; covered by
				// the tier-1 wall on the smaller graph.
				continue
			}
			t.Run(string(alg)+"/"+name, func(t *testing.T) {
				for _, sockets := range []int{1, 2, 4} {
					opts := runOpts{syncSSSP: true, sched: simmachine.NUMA, override: true, sockets: sockets}
					base := runKernelOpts(t, name, alg, el, root, 1, opts)
					for _, workers := range []int{1, 2, 4, 8} {
						for rep := 0; rep < 2; rep++ {
							got := runKernelOpts(t, name, alg, el, root, workers, opts)
							sameOutputs(t, "big numa", base.out, got.out)
							sameDurations(t, "big numa", base, got)
						}
					}
				}
			})
		}
	}
}
