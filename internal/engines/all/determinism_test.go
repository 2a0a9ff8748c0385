// Determinism tests: the parallel runtime's contract is that kernel
// outputs and simmachine's modeled numbers depend only on the Spec —
// never on the goroutine schedule or the real worker count.
//
// FuzzSpec is the one wall of that contract, and core.Knobs is its
// domain: an input decodes into a legal Spec and an (engine, kernel)
// pair, run as harness.Runner runs one (Spec.Owners, Spec.NewMachine,
// Spec.EngineOptions, harness.Load), once per schedule. A product
// build's schedules are real worker counts (schedules_test.go); an
// epg_permute build's are eight chunk orders on the calling goroutine
// (schedules_permute_test.go, simmachine.SetChunkOrder), so a schedule
// dependence fails on a named order instead of once in a few hundred
// runs. Its seeds are every cell of the 22 configurations of
// seedSpecs, which `go test` runs; `make fuzz` explores past them, and
// `make permute` runs them in chunk orders.
package all

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/harness"
	"github.com/hpcl-repro/epg/internal/kronecker"
	"github.com/hpcl-repro/epg/internal/power"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// schedule is one way to run a spec's regions on the host: a real
// worker count (Spec.Workers, the knob the decoder leaves to it) and,
// in an epg_permute build, a chunk order.
type schedule struct {
	name    string
	workers int
	set     func(m *simmachine.Machine) // nil: nothing beyond the spec
}

// workers is the schedule of k real workers.
func workers(k int) schedule { return schedule{name: fmt.Sprintf("workers=%d", k), workers: k} }

// specRun is one engine run of a spec with what it charged: the load's
// two phases, then the kernel's regions, modeled seconds and joules.
// The joules integrate the kernel's regions with the power constants
// NewMachine returns, so the operating point is priced too.
type specRun struct {
	fileRead, construction float64
	trace                  []simmachine.Region
	elapsed                float64
	cpuJoules, ramJoules   float64
	out                    any
}

// runSpec runs spec.Algorithm from root on a new instance of the engine
// d bound to g on schedule s, wired as harness.Runner wires a run.
func runSpec(t *testing.T, spec core.Spec, d *engines.Decl, g *graph.Simple, root graph.VID, s schedule) specRun {
	t.Helper()
	spec.Workers = s.workers
	opts, _ := spec.EngineOptions(d)
	m, pc := spec.NewMachine(nil, simmachine.Haswell72(), power.DefaultConstants(), spec.Owners(g))
	if s.set != nil {
		s.set(m)
	}
	inst := d.New()
	var r specRun
	r.fileRead, r.construction = harness.Load(d, inst, opts, g, m)
	i0, t0 := m.Mark()
	out, err := engines.RunAlgorithm(inst, spec.Algorithm, root)
	if err != nil {
		t.Fatalf("%s %s: %v", d.Name, spec.Algorithm, err)
	}
	i1, t1 := m.Mark()
	rd := pc.MeasureTrace(m.Trace()[i0:i1])
	r.trace, r.elapsed, r.out = slices.Clone(m.Trace()[i0:i1]), t1-t0, out
	r.cpuJoules, r.ramJoules = rd.CPUJoules, rd.RAMJoules
	return r
}

// sameRun requires two runs to compute and charge the same: outputs and
// counters, the load's phases, the kernel trace region by region, the
// elapsed time and the joules, bit for bit — or the distances only.
func sameRun(t *testing.T, label string, a, b specRun, distOnly bool) {
	t.Helper()
	sameAnswers(t, label, a.out, b.out, distOnly)
	if distOnly {
		return
	}
	if a.fileRead != b.fileRead || a.construction != b.construction {
		t.Errorf("%s: load phases differ: (%v read, %v build) vs (%v read, %v build)",
			label, a.fileRead, a.construction, b.fileRead, b.construction)
	}
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

// sameAnswers bit-compares two kernel outputs, or two SSSPs'
// fixed-point distances only.
func sameAnswers(t *testing.T, label string, want, got any, distOnly bool) {
	t.Helper()
	if distOnly {
		sameFloat64sBitwise(t, label+" dist", want.(*engines.SSSPResult).Dist, got.(*engines.SSSPResult).Dist)
		return
	}
	sameOutputs(t, label, want, got)
}

// chaotic is the wall's one exemption: an SSSP run in the racy mode of
// an engine that has a synchronous one (GAP's delta-stepping,
// GraphBIG's relaxation). Its parents, work counters and trace depend
// on the schedule by design; only its fixed-point distances repeat.
func chaotic(d *engines.Decl, alg engines.Algorithm, syncSSSP bool) bool {
	return alg == engines.SSSP && d.Knobs.SyncSSSP && !syncSSSP
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
func determinismGraph(t testing.TB) (*graph.Simple, graph.VID) {
	t.Helper()
	g, err := graph.Homogenize(kronecker.Generate(kronecker.Params{Scale: 12, Seed: 42}))
	if err != nil {
		t.Fatal(err)
	}
	return g, 2 // any reachable root works; keep it fixed
}

// specPair is one (engine, kernel) pair of the registry.
type specPair struct {
	decl *engines.Decl
	alg  engines.Algorithm
}

// specPairs lists every kernel of every engine that implements it, by
// kernel, in presentation order.
var specPairs = func() []specPair {
	var ps []specPair
	for _, alg := range engines.AllAlgorithms {
		for _, d := range Registry() {
			if d.Has(alg) {
				ps = append(ps, specPair{d, alg})
			}
		}
	}
	return ps
}()

// drawn lists the values FuzzSpec draws for knob k of a spec running
// alg: the default and every name of a string knob, both positions of
// a switch, 0 and a spread over [Min, Max] of a number (Min+7 bounds a
// knob without a Max), and a mutation schedule only where the kernel
// streams. A field type it cannot draw fails by name.
func drawn(k *core.Knob, alg engines.Algorithm) ([]any, error) {
	hi := k.Max
	if hi == 0 {
		hi = k.Min + 7
	}
	var vals []any
	switch k.Field(new(core.Spec)).(type) {
	case *string:
		vals = append(vals, "")
		for _, v := range k.Values {
			vals = append(vals, v)
		}
	case *bool:
		vals = []any{false, true}
	case *int:
		vals = append(vals, 0)
		for n := int(k.Min); n <= int(hi); n++ {
			vals = append(vals, n)
		}
	case *float64:
		vals = append(vals, 0.0)
		for j := range 9 {
			vals = append(vals, k.Min+(hi-k.Min)*float64(j)/8)
		}
	case **core.MutationSchedule:
		vals = append(vals, (*core.MutationSchedule)(nil))
		if alg == engines.PageRank || alg == engines.WCC {
			vals = append(vals, &core.MutationSchedule{Batches: 2, BatchSize: 16, DeleteFrac: 0.25, Seed: 1})
		}
	default:
		return nil, fmt.Errorf("knob %s: FuzzSpec cannot draw a %T", k.Name, k.Field(new(core.Spec)))
	}
	return vals, nil
}

// eachDrawn calls f with the field and the drawn values of every knob
// of s but workers, which is left to the schedule, in table order.
func eachDrawn(s *core.Spec, f func(field reflect.Value, vals []any)) error {
	for i := range core.Knobs {
		k := &core.Knobs[i]
		if k.Field(s) == any(&s.Workers) {
			continue
		}
		vals, err := drawn(k, s.Algorithm)
		if err != nil {
			return err
		}
		f(reflect.ValueOf(k.Field(s)).Elem(), vals)
	}
	return nil
}

// decodeSpec reads an input: one byte picks the (engine, kernel) pair,
// then one byte per drawn knob picks its value. Missing bytes are 0,
// the default.
func decodeSpec(data []byte) (specPair, core.Spec, error) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	p := specPairs[next()%len(specPairs)]
	s := core.Spec{Dataset: "kron-12", Algorithm: p.alg, Engines: []string{p.decl.Name}, Threads: 8}
	err := eachDrawn(&s, func(field reflect.Value, vals []any) {
		field.Set(reflect.ValueOf(vals[next()%len(vals)]))
	})
	return p, s, err
}

// encodeSpec is decodeSpec's inverse for pair i and the knobs of s.
func encodeSpec(i int, s core.Spec) []byte {
	s.Algorithm = specPairs[i].alg
	data := []byte{byte(i)}
	eachDrawn(&s, func(field reflect.Value, vals []any) {
		data = append(data, byte(slices.IndexFunc(vals, func(v any) bool { return reflect.DeepEqual(v, field.Interface()) })))
	})
	return data
}

// seedSpecs are FuzzSpec's seed configurations: the engines' own
// policies with chaotic and with synchronous SSSP, every policy
// override, the adaptive grain, compressed adjacency, the cluster cells
// and the full locality model. Every one but the first is synchronous.
func seedSpecs() []core.Spec {
	specs := []core.Spec{{}, {SyncSSSP: true}, {SyncSSSP: true, Sched: core.SchedSteal}}
	for _, sockets := range []int{1, 2, 4} {
		specs = append(specs, core.Spec{SyncSSSP: true, Sched: core.SchedNUMA, Sockets: sockets})
	}
	policies := []core.Spec{
		{Sched: core.SchedStatic},
		{Sched: core.SchedDynamic},
		{Sched: core.SchedSteal},
		{Sched: core.SchedNUMA, Sockets: 2},
		{Sched: core.SchedStatic, Sockets: 2, Placement: core.PlacementFirstTouch},
		{Sched: core.SchedNUMA, Sockets: 2, Placement: core.PlacementFirstTouch},
	}
	for _, p := range policies {
		p.SyncSSSP, p.Grain = true, core.GrainAdaptive
		specs = append(specs, p)
	}
	for _, p := range policies[:4] {
		p.SyncSSSP, p.Compress = true, true
		specs = append(specs, p)
	}
	for _, c := range []core.Spec{
		{Nodes: 1, Partition: core.Partition1D}, {Nodes: 2, Partition: core.Partition1D}, {Nodes: 2, Partition: core.Partition2D},
		{Nodes: 4, Partition: core.Partition1D}, {Nodes: 4, Partition: core.Partition2D},
	} {
		c.SyncSSSP = true
		specs = append(specs, c)
	}
	return append(specs, core.Spec{SyncSSSP: true, Sched: core.SchedNUMA, Sockets: 4,
		Grain: core.GrainAdaptive, Placement: core.PlacementFirstTouch})
}

// describe names a spec's cell: its pair and every knob it sets.
func describe(p specPair, s core.Spec) string {
	var set []string
	for i := range core.Knobs {
		k := &core.Knobs[i]
		if v := reflect.ValueOf(k.Field(&s)).Elem(); !v.IsZero() {
			set = append(set, fmt.Sprintf("%s=%v", k.Name, reflect.Indirect(v).Interface()))
		}
	}
	return fmt.Sprintf("%s/%s {%s}", p.alg, p.decl.Name, strings.Join(set, " "))
}

// honored returns s without the knobs the engine d drops, and their
// names.
func honored(s core.Spec, d *engines.Decl) (core.Spec, []string) {
	_, dropped := s.EngineOptions(d)
	for i := range core.Knobs {
		if k := &core.Knobs[i]; slices.Contains(dropped, k.Name) {
			reflect.ValueOf(k.Field(&s)).Elem().SetZero()
		}
	}
	return s, dropped
}

// FuzzSpec holds three properties of every legal spec on the walls'
// graph:
//
//  1. schedule independence: every schedule's outputs, counters, load
//     phases, kernel trace, elapsed time and joules equal the first's
//     bit for bit, and the first's joules are positive;
//  2. knobs never change answers: outputs equal those of the default
//     spec with the same grain policy and sync-sssp (a chunk-ordered
//     fold follows the partition, which the grain sets: adaptive
//     PageRank differs from fixed by an ulp);
//  3. a dropped knob is inert: a knob EngineOptions reports dropped
//     leaves the run bit-equal, cost included, to the spec without it.
//     The first schedule runs the spec without its dropped knobs, so
//     every other schedule's run of the spec is held to that one.
//
// A chaotic run compares its distances only. The stream phase of a
// mutation schedule is harness.Runner's, held by TestKnobsLive's
// mutations row; here the schedule reaches the engine's bind.
func FuzzSpec(f *testing.F) {
	g, root := determinismGraph(f)
	var exempt []string
	for _, s := range seedSpecs() {
		for i, p := range specPairs {
			data := encodeSpec(i, s)
			got, spec, err := decodeSpec(data)
			if err != nil {
				f.Fatal(err)
			}
			s.Dataset, s.Algorithm, s.Engines, s.Threads = spec.Dataset, spec.Algorithm, spec.Engines, spec.Threads
			if got != p || !reflect.DeepEqual(spec, s) {
				f.Fatalf("seed %s does not round-trip: %s", describe(p, s), describe(got, spec))
			}
			if chaotic(p.decl, p.alg, s.SyncSSSP) {
				exempt = append(exempt, describe(p, s))
			}
			f.Add(data)
		}
	}
	if want := []string{"SSSP/GAP {}", "SSSP/GraphBIG {}"}; !slices.Equal(exempt, want) {
		f.Fatalf("the exemption covers seed cells %q, want %q", exempt, want)
	}
	refs := map[string]specRun{} // property 2's reference runs, by cell
	f.Fuzz(func(t *testing.T, data []byte) {
		p, spec, err := decodeSpec(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("decoded an illegal spec %s: %v", describe(p, spec), err)
		}
		cell := describe(p, spec)
		chaos := chaotic(p.decl, p.alg, spec.SyncSSSP)

		// The input runs as a subtest named by its cell, so -run selects
		// cells (FuzzSpec/.*/BFS/GAP) and the test tree names them.
		t.Run(cell, func(t *testing.T) {
			base, dropped := honored(spec, p.decl)
			first := runSpec(t, base, p.decl, g, root, schedules[0])
			if first.cpuJoules <= 0 || first.ramJoules <= 0 {
				t.Errorf("%s: no energy recorded: cpu %v J, ram %v J", cell, first.cpuJoules, first.ramJoules)
			}
			vs := schedules[0].name
			if dropped != nil {
				vs += fmt.Sprintf(" without dropped %v", dropped)
			}
			for _, s := range schedules[1:] {
				sameRun(t, fmt.Sprintf("%s: %s vs %s", cell, s.name, vs), first, runSpec(t, spec, p.decl, g, root, s), chaos)
			}

			def, _ := honored(core.Spec{Dataset: spec.Dataset, Algorithm: spec.Algorithm, Threads: spec.Threads,
				Grain: spec.Grain, SyncSSSP: spec.SyncSSSP}, p.decl)
			key := describe(p, def)
			ref, ok := refs[key]
			switch {
			case ok:
			case describe(p, base) == key:
				ref = first
			default:
				ref = runSpec(t, def, p.decl, g, root, schedules[0])
			}
			refs[key] = ref
			sameAnswers(t, cell+": vs the default spec", ref.out, first.out, chaos)
		})
	})
}

// TestNUMASocketsOneMatchesSteal: with one virtual socket the NUMA
// policy must be byte-identical to plain Steal — outputs AND modeled
// durations — for every kernel and engine. This pins the contract
// that the locality model is a strict extension: it only diverges
// when Spec.Sockets asks for more than one socket.
func TestNUMASocketsOneMatchesSteal(t *testing.T) {
	g, root := determinismGraph(t)
	steal := core.Spec{Threads: 8, Sched: core.SchedSteal, SyncSSSP: true}
	numa := core.Spec{Threads: 8, Sched: core.SchedNUMA, Sockets: 1, SyncSSSP: true}
	for _, alg := range engines.AllAlgorithms {
		t.Run(string(alg), func(t *testing.T) {
			for _, p := range specPairs {
				if p.alg != alg {
					continue
				}
				t.Run(p.decl.Name, func(t *testing.T) {
					steal.Algorithm, numa.Algorithm = p.alg, p.alg
					sameRun(t, describe(p, numa)+" vs steal", runSpec(t, steal, p.decl, g, root, workers(2)),
						runSpec(t, numa, p.decl, g, root, workers(2)), false)
				})
			}
		})
	}
}
