// Adaptive-grain walls: under Spec.Grain = "adaptive" every kernel
// region derives its chunk partition from (region size, virtual
// threads) instead of the engine's fixed grain. The partition is a
// pure function of the Spec, so the full determinism contract — bit-
// identical outputs AND modeled durations across runs and real worker
// counts — must hold under every scheduling policy, with the
// first-touch placement model stacked on top for the steal policies.
package all

import (
	"slices"
	"testing"

	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/harness"
	"github.com/hpcl-repro/epg/internal/kronecker"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// adaptivePolicies is the scheduling axis of the adaptive-grain wall.
var adaptivePolicies = []struct {
	name      string
	sched     simmachine.Sched
	sockets   int
	placement bool
}{
	{"static", simmachine.Static, 0, false},
	{"dynamic", simmachine.Dynamic, 0, false},
	{"steal", simmachine.Steal, 0, false},
	{"numa", simmachine.NUMA, 2, false},
	// The placement model joins the wall where it is live: multiple
	// sockets, with both a steal policy and (the new regime) static.
	{"static+placement", simmachine.Static, 2, true},
	{"numa+placement", simmachine.NUMA, 2, true},
}

// TestAdaptiveGrainDeterministicAllKernels is the six-kernel wall
// under the adaptive grain policy × {static, dynamic, steal, numa}
// (plus placement-enabled variants): outputs and modeled durations
// bit-identical across runs and worker counts for every engine that
// implements each kernel.
func TestAdaptiveGrainDeterministicAllKernels(t *testing.T) {
	el, root := determinismGraph()
	for _, pol := range adaptivePolicies {
		t.Run(pol.name, func(t *testing.T) {
			opts := runOpts{
				syncSSSP: true, sched: pol.sched, override: true,
				sockets: pol.sockets, adaptive: true, placement: pol.placement,
			}
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
							base := runKernelOpts(t, name, alg, el, root, 1, opts)
							for _, workers := range []int{1, 4} {
								got := runKernelOpts(t, name, alg, el, root, workers, opts)
								sameOutputs(t, "adaptive", base.out, got.out)
								sameDurations(t, "adaptive", base, got)
							}
						})
					}
				})
			}
		})
	}
}

// TestAdaptiveGrainChangesPartition pins that the knob is live: the
// adaptive policy must re-chunk GAP's BFS (its fixed 64-grain top-down
// levels become threads-proportional), which shifts the modeled
// duration trace. Equal traces would mean Machine.Grain is not
// reaching the kernels.
func TestAdaptiveGrainChangesPartition(t *testing.T) {
	el, root := determinismGraph()
	fixed := runKernelOpts(t, GAP, engines.BFS, el, root, 1, runOpts{})
	adaptive := runKernelOpts(t, GAP, engines.BFS, el, root, 1, runOpts{adaptive: true})
	sameOutputs(t, "adaptive vs fixed outputs", fixed.out, adaptive.out)
	if fixed.elapsed == adaptive.elapsed && slices.Equal(fixed.durations, adaptive.durations) {
		t.Error("adaptive grain produced a byte-identical duration trace: Machine.Grain not reaching kernels")
	}
}

// TestSpecGrainPlacementKnobsEndToEnd drives the harness with the new
// Spec knobs: modeled measurements under Grain="adaptive" +
// Placement="firsttouch" must be identical across worker counts, the
// grain knob must actually move modeled time relative to fixed, and
// malformed values are rejected by validation.
func TestSpecGrainPlacementKnobsEndToEnd(t *testing.T) {
	el := kronecker.Generate(kronecker.Params{Scale: 9, Seed: 7})
	r := harness.NewRunner(Registry())
	run := func(workers int, grain, placement string) []float64 {
		spec := coreSpec(engines.BFS, workers)
		spec.Sched = core.SchedNUMA
		spec.Sockets = 2
		spec.Grain = grain
		spec.Placement = placement
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
	base := run(1, core.GrainAdaptive, core.PlacementFirstTouch)
	for _, workers := range []int{2, 4} {
		sameFloat64sBitwise(t, "adaptive+placement spec seconds", base,
			run(workers, core.GrainAdaptive, core.PlacementFirstTouch))
	}
	if fixed := run(1, core.GrainFixed, core.PlacementFirstTouch); slices.Equal(base, fixed) {
		t.Error("Grain=adaptive modeled seconds identical to fixed: knob not reaching the machine")
	}

	bad := coreSpec(engines.BFS, 1)
	bad.Grain = "coarse"
	if _, err := r.Run(bad, el); err == nil {
		t.Error("unknown grain policy accepted")
	}
	bad = coreSpec(engines.BFS, 1)
	bad.Placement = "interleave"
	if _, err := r.Run(bad, el); err == nil {
		t.Error("unknown placement model accepted")
	}
}
