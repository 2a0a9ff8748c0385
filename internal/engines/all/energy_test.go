// Energy walls: the scheduling study's joules columns are only a
// valid drift-gate payload (and only host-independent) if the energy
// integral is a pure function of the Spec. TestScheduleIndependence
// bit-compares every run's joules across schedules, under every
// configuration the study sweeps; here the DVFS knob must reach the
// harness end to end.
package all

import (
	"math"
	"testing"

	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/harness"
	"github.com/hpcl-repro/epg/internal/kronecker"
)

// TestSpecFreqKnobEndToEnd drives Spec.FreqState through the harness:
// "turbo" must be byte-identical to the default empty state, lower
// operating points must stretch modeled time while drawing less
// average CPU power (the DVFS trade the study sweeps), joules must
// stay bit-identical across worker counts at every state, and an
// unknown state must be rejected.
func TestSpecFreqKnobEndToEnd(t *testing.T) {
	el := kronecker.Generate(kronecker.Params{Scale: 9, Seed: 7})
	r := harness.NewRunner(Registry())
	run := func(freq string, workers int) []core.Result {
		spec := coreSpec(engines.PageRank, workers)
		spec.Engines = []string{GAP}
		spec.FreqState = freq
		spec.MeasurePower = true
		rs, err := r.Run(spec, el)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}

	turboDefault := run("", 1)
	turboNamed := run(core.FreqTurbo, 1)
	for i := range turboDefault {
		a, b := turboDefault[i], turboNamed[i]
		if math.Float64bits(a.AlgorithmSec) != math.Float64bits(b.AlgorithmSec) ||
			math.Float64bits(a.CPUJoules) != math.Float64bits(b.CPUJoules) ||
			math.Float64bits(a.RAMJoules) != math.Float64bits(b.RAMJoules) {
			t.Errorf("trial %d: named turbo differs from default: %+v vs %+v", i, b, a)
		}
	}

	for _, freq := range []string{core.FreqBalanced, core.FreqPowersave} {
		slow := run(freq, 1)
		for i := range slow {
			if slow[i].AlgorithmSec <= turboDefault[i].AlgorithmSec {
				t.Errorf("%s trial %d: modeled %v s not above turbo %v s",
					freq, i, slow[i].AlgorithmSec, turboDefault[i].AlgorithmSec)
			}
			if slow[i].AvgCPUWatts >= turboDefault[i].AvgCPUWatts {
				t.Errorf("%s trial %d: avg cpu %v W not below turbo %v W",
					freq, i, slow[i].AvgCPUWatts, turboDefault[i].AvgCPUWatts)
			}
		}
		for _, workers := range []int{2, 4} {
			again := run(freq, workers)
			for i := range slow {
				if math.Float64bits(again[i].CPUJoules) != math.Float64bits(slow[i].CPUJoules) ||
					math.Float64bits(again[i].RAMJoules) != math.Float64bits(slow[i].RAMJoules) {
					t.Errorf("%s workers=%d trial %d: joules drifted across workers", freq, workers, i)
				}
			}
		}
	}

	bad := coreSpec(engines.BFS, 1)
	bad.FreqState = "overclocked"
	if _, err := r.Run(bad, el); err == nil {
		t.Error("unknown frequency state accepted")
	}
}
