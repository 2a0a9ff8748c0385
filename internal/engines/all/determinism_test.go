// Determinism tests: the parallel runtime's contract is that kernel
// outputs and simmachine's modeled numbers depend only on the Spec —
// never on the goroutine schedule or the real worker count.
//
// TestScheduleIndependence is the one wall of that contract. It runs
// every (engine, kernel) pair under each configuration of
// scheduleRows, once per schedule, and compares every schedule with
// the first bit for bit. A product build's schedules are real worker
// counts (schedules_test.go); an epg_permute build's are eight chunk
// orders on the calling goroutine (schedules_permute_test.go,
// simmachine.SetChunkOrder), so a schedule dependence fails on a named
// order instead of once in a few hundred runs. `make permute` runs it.
package all

import (
	"fmt"
	"math"
	"slices"
	"strings"
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

// schedule is one way to run a configuration's regions on the host.
type schedule struct {
	name string
	set  func(m *simmachine.Machine)
}

// workers is the schedule of k real workers.
func workers(k int) schedule {
	return schedule{fmt.Sprintf("workers=%d", k), func(m *simmachine.Machine) { m.SetWorkers(k) }}
}

// kernelRun is one engine execution with its observables. The joules
// are the power model integrated over the run's region trace
// (power.MeasureTrace with the default calibration): a pure function
// of the modeled schedule, so the walls pin them exactly like
// durations.
type kernelRun struct {
	trace     []simmachine.Region
	elapsed   float64
	cpuJoules float64
	ramJoules float64
	out       any
}

// runOpts is one configuration of a kernel run.
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

// runKernelOpts runs alg from root on a fresh instance of the named
// engine bound to g, on an 8-thread machine configured by opts and run
// on schedule s.
func runKernelOpts(t *testing.T, name string, alg engines.Algorithm, g *graph.Simple, root graph.VID, s schedule, opts runOpts) kernelRun {
	t.Helper()
	eng, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	engines.Configure(eng, engines.Options{SyncSSSP: opts.syncSSSP, Compress: opts.compress})
	m := simmachine.New(simmachine.Haswell72(), 8)
	s.set(m)
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
		m.SetCluster(opts.nodes, core.Spec{Nodes: opts.nodes, Partition: opts.partition}.Owners(g.Out))
	}
	inst := eng.LoadSimple(g, m)
	inst.BuildStructure()
	m.Reset()
	out, err := engines.RunAlgorithm(inst, alg, root)
	if err != nil {
		t.Fatalf("%s %s: %v", name, alg, err)
	}
	rd := power.DefaultConstants().MeasureTrace(m.Trace())
	return kernelRun{
		trace: slices.Clone(m.Trace()), elapsed: m.Elapsed(),
		cpuJoules: rd.CPUJoules, ramJoules: rd.RAMJoules, out: out,
	}
}

// sameModeled requires two runs to charge the same: the trace region
// by region, the elapsed time and the joules, bit for bit.
func sameModeled(t *testing.T, label string, a, b kernelRun) {
	t.Helper()
	if a.elapsed != b.elapsed {
		t.Errorf("%s: modeled elapsed differs: %v vs %v", label, a.elapsed, b.elapsed)
	}
	if math.Float64bits(a.cpuJoules) != math.Float64bits(b.cpuJoules) ||
		math.Float64bits(a.ramJoules) != math.Float64bits(b.ramJoules) {
		t.Errorf("%s: modeled joules differ: (%v cpu, %v ram) vs (%v cpu, %v ram)",
			label, a.cpuJoules, a.ramJoules, b.cpuJoules, b.ramJoules)
	}
	if len(a.trace) != len(b.trace) {
		t.Errorf("%s: region count differs: %d vs %d", label, len(a.trace), len(b.trace))
		return
	}
	for i := range a.trace {
		if a.trace[i] != b.trace[i] {
			t.Errorf("%s: region %d is %+v vs %+v", label, i, a.trace[i], b.trace[i])
			return
		}
	}
}

// sameDurations reports whether two runs' regions last the same.
func sameDurations(a, b kernelRun) bool {
	return slices.EqualFunc(a.trace, b.trace, func(x, y simmachine.Region) bool { return x.Seconds == y.Seconds })
}

func sameInts[T int64 | graph.VID](t *testing.T, label string, a, b []T) {
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

// sameOutputs bit-compares two kernel outputs of the same type, their
// trip and work counters included.
func sameOutputs(t *testing.T, label string, ref, got any) {
	t.Helper()
	switch r := ref.(type) {
	case *engines.BFSResult:
		g := got.(*engines.BFSResult)
		sameInts(t, label+" parent", r.Parent, g.Parent)
		sameInts(t, label+" depth", r.Depth, g.Depth)
		if r.EdgesExamined != g.EdgesExamined {
			t.Errorf("%s: edges examined %d vs %d", label, r.EdgesExamined, g.EdgesExamined)
		}
	case *engines.SSSPResult:
		g := got.(*engines.SSSPResult)
		sameFloat64sBitwise(t, label+" dist", r.Dist, g.Dist)
		sameInts(t, label+" parent", r.Parent, g.Parent)
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
		sameInts(t, label+" label", r.Label, g.Label)
		if r.Iterations != g.Iterations {
			t.Errorf("%s: iterations %d vs %d", label, r.Iterations, g.Iterations)
		}
	case *engines.LCCResult:
		g := got.(*engines.LCCResult)
		sameFloat64sBitwise(t, label+" coeff", r.Coeff, g.Coeff)
	case *engines.WCCResult:
		g := got.(*engines.WCCResult)
		sameInts(t, label+" component", r.Component, g.Component)
	default:
		t.Fatalf("%s: unknown result type %T", label, ref)
	}
}

// determinismGraph is the walls' graph: kron-12, seed 42, where even
// the coarsest fixed grain (traverse.Hook's 1024) splits a region into
// chunks whose order can be permuted.
func determinismGraph(t *testing.T) (*graph.Simple, graph.VID) {
	t.Helper()
	g, err := graph.Homogenize(kronecker.Generate(kronecker.Params{Scale: 12, Seed: 42}))
	if err != nil {
		t.Fatal(err)
	}
	return g, 2 // any reachable root works; keep it fixed
}

// eachPair runs f as a subtest alg/engine for every kernel of every
// engine that implements it.
func eachPair(t *testing.T, f func(t *testing.T, alg engines.Algorithm, name string)) {
	for _, alg := range engines.AllAlgorithms {
		t.Run(string(alg), func(t *testing.T) {
			for _, name := range Names {
				if eng, _ := New(name); eng.Has(alg) {
					t.Run(name, func(t *testing.T) { f(t, alg, name) })
				}
			}
		})
	}
}

// scheduleRow is one configuration of the wall.
type scheduleRow struct {
	name string
	opts runOpts
}

// scheduleRows lists the wall's configurations: the engines' own
// policies with chaotic and with synchronous SSSP, every policy
// override, the adaptive grain, compressed adjacency, the cluster cells
// and the full locality model. Every row but the first is synchronous.
func scheduleRows() []scheduleRow {
	rows := []scheduleRow{
		{"default", runOpts{}},
		{"sync", runOpts{syncSSSP: true}},
		{"steal", runOpts{syncSSSP: true, sched: simmachine.Steal, override: true}},
	}
	for _, sockets := range []int{1, 2, 4} {
		rows = append(rows, scheduleRow{fmt.Sprintf("numa%d", sockets),
			runOpts{syncSSSP: true, sched: simmachine.NUMA, override: true, sockets: sockets}})
	}
	policies := []struct {
		name      string
		sched     simmachine.Sched
		sockets   int
		placement bool
	}{
		{"static", simmachine.Static, 0, false},
		{"dynamic", simmachine.Dynamic, 0, false},
		{"steal", simmachine.Steal, 0, false},
		{"numa", simmachine.NUMA, 2, false},
		{"static+placement", simmachine.Static, 2, true},
		{"numa+placement", simmachine.NUMA, 2, true},
	}
	for _, p := range policies {
		rows = append(rows, scheduleRow{"adaptive-" + p.name, runOpts{syncSSSP: true, sched: p.sched, override: true,
			sockets: p.sockets, placement: p.placement, adaptive: true}})
	}
	for _, p := range policies[:4] {
		rows = append(rows, scheduleRow{"compress-" + p.name, runOpts{syncSSSP: true, sched: p.sched, override: true,
			sockets: p.sockets, compress: true}})
	}
	for _, c := range []struct {
		nodes     int
		partition string
	}{{1, core.Partition1D}, {2, core.Partition1D}, {2, core.Partition2D}, {4, core.Partition1D}, {4, core.Partition2D}} {
		rows = append(rows, scheduleRow{fmt.Sprintf("nodes%d-%s", c.nodes, c.partition),
			runOpts{syncSSSP: true, nodes: c.nodes, partition: c.partition}})
	}
	return append(rows, scheduleRow{"locality", runOpts{syncSSSP: true, sched: simmachine.NUMA, override: true,
		sockets: 4, adaptive: true, placement: true}})
}

// scheduleExempt names the cells whose parents, work counters and
// trace depend on the schedule by design: the chaotic SSSPs (GAP's
// delta-stepping, GraphBIG's relaxation), of which only the fixed-point
// distances repeat, and are compared. The list may only shrink.
var scheduleExempt = []string{"default/SSSP/GAP", "default/SSSP/GraphBIG"}

// TestScheduleIndependence: within a row, every schedule's outputs,
// trip and work counters, trace, elapsed time and joules equal the
// first schedule's bit for bit, and the first one's joules are
// positive. Across rows, outputs equal those of the first row with the
// same grain policy: compressed equals raw, sharded equals shared
// memory, and the locality model moves no result. (Per grain policy,
// because a chunk-ordered fold follows the partition, which the Spec
// sets: adaptive PageRank differs from fixed by an ulp.)
func TestScheduleIndependence(t *testing.T) {
	t.Logf("exempt (distances only): %s", strings.Join(scheduleExempt, ", "))
	g, root := determinismGraph(t)
	type ref struct {
		row    string
		out    any
		exempt bool
	}
	rows := scheduleRows()
	for _, cell := range scheduleExempt {
		row, pair, _ := strings.Cut(cell, "/")
		alg, name, _ := strings.Cut(pair, "/")
		eng, err := New(name)
		if err != nil || !eng.Has(engines.Algorithm(alg)) || !slices.ContainsFunc(rows, func(r scheduleRow) bool { return r.name == row }) {
			t.Errorf("exempt cell %s is not in the wall", cell)
		}
	}
	refs := map[string]ref{} // by grain policy, kernel and engine
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			eachPair(t, func(t *testing.T, alg engines.Algorithm, name string) {
				cell := fmt.Sprintf("%s/%s/%s", row.name, alg, name)
				exempt := slices.Contains(scheduleExempt, cell)
				same := func(label string, want, got any, distOnly bool) {
					if distOnly {
						sameFloat64sBitwise(t, label+" dist", want.(*engines.SSSPResult).Dist, got.(*engines.SSSPResult).Dist)
					} else {
						sameOutputs(t, label, want, got)
					}
				}
				first := runKernelOpts(t, name, alg, g, root, schedules[0], row.opts)
				if first.cpuJoules <= 0 || first.ramJoules <= 0 {
					t.Errorf("no energy recorded: cpu %v J, ram %v J", first.cpuJoules, first.ramJoules)
				}
				for _, s := range schedules[1:] {
					got := runKernelOpts(t, name, alg, g, root, s, row.opts)
					label := s.name + " vs " + schedules[0].name
					same(label, first.out, got.out, exempt)
					if !exempt {
						sameModeled(t, label, first, got)
					}
				}
				key := fmt.Sprintf("adaptive=%v/%s/%s", row.opts.adaptive, alg, name)
				r, ok := refs[key]
				if ok {
					same("vs row "+r.row, r.out, first.out, r.exempt || exempt)
				}
				if !ok || r.exempt && !exempt {
					refs[key] = ref{row.name, first.out, exempt}
				}
			})
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

// TestNUMASocketsOneMatchesSteal: with one virtual socket the NUMA
// policy must be byte-identical to plain Steal — outputs AND modeled
// durations — for every kernel and engine. This pins the contract
// that the locality model is a strict extension: it only diverges
// when Spec.Sockets asks for more than one socket.
func TestNUMASocketsOneMatchesSteal(t *testing.T) {
	g, root := determinismGraph(t)
	eachPair(t, func(t *testing.T, alg engines.Algorithm, name string) {
		steal := runKernelOpts(t, name, alg, g, root, workers(2),
			runOpts{syncSSSP: true, sched: simmachine.Steal, override: true})
		numa := runKernelOpts(t, name, alg, g, root, workers(2),
			runOpts{syncSSSP: true, sched: simmachine.NUMA, override: true, sockets: 1})
		sameOutputs(t, "numa vs steal", steal.out, numa.out)
		sameModeled(t, "numa vs steal", steal, numa)
	})
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
