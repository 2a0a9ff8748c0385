// Adaptive-grain walls: under Spec.Grain = "adaptive" every kernel
// region derives its chunk partition from (region size, virtual
// threads) instead of the engine's fixed grain. The partition is a
// pure function of the Spec, so the full determinism contract holds
// under every scheduling policy, with and without the first-touch
// placement model: TestScheduleIndependence's adaptive rows. Here the
// knob must be live and reach the harness.
package all

import (
	"slices"
	"testing"

	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/harness"
	"github.com/hpcl-repro/epg/internal/kronecker"
)

// TestAdaptiveGrainChangesPartition pins that the knob is live: the
// adaptive policy must re-chunk GAP's BFS (its fixed 64-grain top-down
// levels become threads-proportional), which shifts the modeled
// duration trace. Equal traces would mean Machine.Grain is not
// reaching the kernels.
func TestAdaptiveGrainChangesPartition(t *testing.T) {
	g, root := determinismGraph(t)
	fixed := runKernelOpts(t, GAP, engines.BFS, g, root, workers(1), runOpts{})
	adaptive := runKernelOpts(t, GAP, engines.BFS, g, root, workers(1), runOpts{adaptive: true})
	sameOutputs(t, "adaptive vs fixed outputs", fixed.out, adaptive.out)
	if fixed.elapsed == adaptive.elapsed && sameDurations(fixed, adaptive) {
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
