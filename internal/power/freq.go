package power

import (
	"fmt"
	"strings"

	"github.com/hpcl-repro/epg/internal/simmachine"
)

// FreqState is one modeled DVFS operating point (Spec.FreqState): a
// named pair of scalings applied to the machine's core clocks and to
// the CPU-plane dynamic power constants. The paper measures a single
// fixed governor; modeling a small set of P-state-like points lets the
// scheduling study answer its energy question — which policy × grain ×
// placement × frequency is fastest *per joule* — the way a DVFS sweep
// on the real machine would.
//
// The scalings follow classic voltage–frequency coupling with voltage
// roughly linear in frequency over the DVFS range: per-lane dynamic
// power P ∝ f·V² scales as Clock³, and per-event (per-cycle,
// per-atomic) energy E ∝ V² scales as Clock². The DRAM plane
// (BandwidthWatts, RAMIdleWatts) and the package idle draw
// (CPUIdleWatts — leakage and uncore, largely governor-independent)
// are untouched, which reproduces the real trade-off: memory-bound
// regions barely slow down at a lower point (the DRAM roofline is
// clock-independent) while their CPU dynamic draw drops, but
// compute-bound regions stretch and pay the idle draw for longer —
// race-to-idle can win.
//
// All factors are literal constants, so scaled models and constants —
// and every joule derived from them — remain bit-deterministic and
// host-independent.
type FreqState struct {
	Name string
	// Clock multiplies both core clocks (TurboHz, BaseHz); cycle time
	// divides by it. Costs expressed in cycles (AtomicCycles,
	// RemoteStealCycles, ParseCyclesPerByte) stretch automatically.
	Clock float64
	// LanePower multiplies LaneWatts (per busy lane, P ∝ f·V² ≈ Clock³).
	LanePower float64
	// CyclePower multiplies ThroughputWatts and AtomicWatts (per-event
	// energy, E ∝ V² ≈ Clock²).
	CyclePower float64
}

// The modeled operating points. FreqTurbo is the identity — the
// calibration every artifact used before the frequency axis existed.
var (
	freqTurbo     = FreqState{Name: "turbo", Clock: 1, LanePower: 1, CyclePower: 1}
	freqBalanced  = FreqState{Name: "balanced", Clock: 0.8, LanePower: 0.512, CyclePower: 0.64}
	freqPowersave = FreqState{Name: "powersave", Clock: 0.6, LanePower: 0.216, CyclePower: 0.36}
)

// FreqStates lists the modeled operating points, fastest first.
func FreqStates() []FreqState {
	return []FreqState{freqTurbo, freqBalanced, freqPowersave}
}

// FreqStateByName resolves a Spec.FreqState name. The empty string is
// the default point, turbo (no scaling).
func FreqStateByName(name string) (FreqState, error) {
	if name == "" {
		return freqTurbo, nil
	}
	for _, f := range FreqStates() {
		if f.Name == name {
			return f, nil
		}
	}
	var names []string
	for _, f := range FreqStates() {
		names = append(names, f.Name)
	}
	return FreqState{}, fmt.Errorf("power: unknown frequency state %q (want one of: %s)",
		name, strings.Join(names, ", "))
}

// ScaleModel returns the machine model at this operating point: core
// clocks multiplied by Clock, everything else untouched (DRAM and disk
// bandwidth, synchronization seconds, locality factors). Turbo returns
// the model bit-identical.
func (f FreqState) ScaleModel(m simmachine.Model) simmachine.Model {
	m.TurboHz *= f.Clock
	m.BaseHz *= f.Clock
	return m
}

// ScaleConstants returns the power calibration at this operating
// point: LaneWatts × LanePower, ThroughputWatts and AtomicWatts ×
// CyclePower; idle draws and the DRAM plane untouched. Turbo returns
// the constants bit-identical.
func (f FreqState) ScaleConstants(c Constants) Constants {
	c.LaneWatts *= f.LanePower
	c.ThroughputWatts *= f.CyclePower
	c.AtomicWatts *= f.CyclePower
	return c
}
