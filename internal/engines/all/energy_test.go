// Energy determinism wall: the scheduling study's joules columns are
// only a valid drift-gate payload (and only host-independent) if the
// energy integral is a pure function of the Spec. This wall pins that
// for all six kernels: total joules are bit-identical across repeated
// runs and real worker counts, under both the default per-engine
// policies and the full locality configuration the study sweeps (numa
// × sockets × adaptive grain × first-touch placement). It complements
// the duration walls in determinism_test.go, which since the energy
// columns landed also bit-compare per-run joules via sameDurations.
package all

import (
	"math"
	"testing"

	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/harness"
	"github.com/hpcl-repro/epg/internal/kronecker"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

func TestEnergyDeterministicAllKernels(t *testing.T) {
	el, root := determinismGraph()
	configs := []struct {
		name string
		opts runOpts
	}{
		{"default", runOpts{syncSSSP: true}},
		{"locality", runOpts{syncSSSP: true, sched: simmachine.NUMA, override: true,
			sockets: 4, adaptive: true, placement: true}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
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
							base := runKernelOpts(t, name, alg, el, root, workerCounts[0], cfg.opts)
							if base.cpuJoules <= 0 || base.ramJoules <= 0 {
								t.Fatalf("no energy recorded: cpu %v J, ram %v J", base.cpuJoules, base.ramJoules)
							}
							for _, workers := range workerCounts {
								got := runKernelOpts(t, name, alg, el, root, workers, cfg.opts)
								if math.Float64bits(got.cpuJoules) != math.Float64bits(base.cpuJoules) ||
									math.Float64bits(got.ramJoules) != math.Float64bits(base.ramJoules) {
									t.Errorf("workers=%d: joules (%v cpu, %v ram) != base (%v cpu, %v ram)",
										workers, got.cpuJoules, got.ramJoules, base.cpuJoules, base.ramJoules)
								}
							}
						})
					}
				})
			}
		})
	}
}

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
