package core

import (
	"reflect"
	"strings"
	"testing"

	"github.com/hpcl-repro/epg/internal/alloctest"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/power"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// identityFields are the Spec fields that say what the experiment is;
// every other exported field is an execution knob and must be in Knobs.
var identityFields = map[string]bool{
	"Dataset": true, "Algorithm": true, "Engines": true, "Threads": true,
	"Roots": true, "Seed": true, "MeasurePower": true,
}

// TestKnobsCoverSpec is the completeness wall: every exported Spec
// field is an identity field or owned by exactly one Knobs entry, and
// every entry owns a field — the table cannot silently miss a knob.
func TestKnobsCoverSpec(t *testing.T) {
	var s Spec
	v := reflect.ValueOf(&s).Elem()
	owned := 0
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		addr := v.Field(i).Addr().Interface()
		var owners []string
		for _, k := range Knobs {
			if k.Field(&s) == addr {
				owners = append(owners, k.Name)
			}
		}
		owned += len(owners)
		switch {
		case identityFields[name] && len(owners) != 0:
			t.Errorf("identity field Spec.%s is owned by knobs %v", name, owners)
		case !identityFields[name] && len(owners) != 1:
			t.Errorf("Spec.%s is owned by %d knobs %v, want exactly one", name, len(owners), owners)
		}
	}
	if owned != len(Knobs) {
		t.Errorf("%d knobs own a Spec field, table has %d entries", owned, len(Knobs))
	}
	names := map[string]bool{}
	for _, k := range Knobs {
		if k.Name == "" || k.Help == "" || names[k.Name] {
			t.Errorf("knob %q: empty or duplicate name, or no help", k.Name)
		}
		names[k.Name] = true
	}
}

// TestKnobsValidate drives Spec.Validate through the table: every
// listed name and range endpoint passes, one value outside the table
// per knob fails, and the failure lists the legal values.
func TestKnobsValidate(t *testing.T) {
	check := func(k *Knob, set func(*Spec), ok bool) {
		t.Helper()
		s := Spec{Dataset: "kron-16", Algorithm: engines.BFS, Threads: 32}
		set(&s)
		err := s.Validate()
		switch {
		case ok && err != nil:
			t.Errorf("%s: legal value rejected: %v", k.Name, err)
		case !ok && err == nil:
			t.Errorf("%s: out-of-table value accepted (%+v)", k.Name, s)
		case !ok && !(strings.Contains(err.Error(), k.Name) && strings.Contains(err.Error(), k.Legal())):
			t.Errorf("%s: error %q does not name the knob and its legal values %q", k.Name, err, k.Legal())
		}
	}
	for i := range Knobs {
		k := &Knobs[i]
		// numeric checks 0, both endpoints and a value past each of them;
		// below is the nearest settable value under Min (0 is the default).
		numeric := func(below float64, set func(*Spec, float64)) {
			in, out := []float64{0, k.Min, k.Min + 1}, []float64{-1, below}
			if k.Max > 0 {
				in, out = append(in, k.Max), append(out, k.Max+1)
			} else {
				in = append(in, 1<<20)
			}
			for _, n := range in {
				check(k, func(s *Spec) { set(s, n) }, true)
			}
			for _, n := range out {
				check(k, func(s *Spec) { set(s, n) }, false)
			}
		}
		switch k.Field(new(Spec)).(type) {
		case *string:
			if len(k.Values) == 0 {
				t.Errorf("%s: string knob without Values", k.Name)
			}
			for _, name := range append([]string{""}, k.Values...) {
				check(k, func(s *Spec) { *k.Field(s).(*string) = name }, true)
			}
			for _, name := range []string{"bogus", strings.ToUpper(k.Values[0]), k.Values[0] + " "} {
				check(k, func(s *Spec) { *k.Field(s).(*string) = name }, false)
			}
		case *int:
			numeric(-2, func(s *Spec, n float64) { *k.Field(s).(*int) = int(n) })
		case *float64:
			numeric(k.Min/2, func(s *Spec, n float64) { *k.Field(s).(*float64) = n })
		case *bool, **MutationSchedule:
			if k.Legal() != "" {
				t.Errorf("%s: switch or schedule knob lists values %q", k.Name, k.Legal())
			}
		default:
			t.Errorf("%s: field type %T is not one Validate and the CLI understand", k.Name, k.Field(new(Spec)))
		}
	}
}

// The freq knob's names are the power package's operating points: the
// lookup behind the hook must know every name Validate admits.
func TestFreqKnobMatchesPowerStates(t *testing.T) {
	var names []string
	for _, f := range power.FreqStates() {
		names = append(names, f.Name)
	}
	for _, k := range Knobs {
		if k.Name == "freq" && !reflect.DeepEqual(k.Values, names) {
			t.Errorf("freq knob admits %v, power.FreqStates has %v", k.Values, names)
		}
	}
	_, err := power.FreqStateByName("warp9")
	if err == nil || !strings.Contains(err.Error(), strings.Join(names, ", ")) {
		t.Errorf("FreqStateByName error does not list the states: %v", err)
	}
}

// TestKnobHooksReachTheirTargets checks each stage's loop: a spec with
// every knob set yields a scaled model, a machine carrying the machine-
// side settings, and the three engine requests; the zero spec yields the
// untouched defaults, also on the full spec's machine renewed.
func TestKnobHooksReachTheirTargets(t *testing.T) {
	base, pc := simmachine.Haswell72(), power.DefaultConstants()

	zero := Spec{Threads: 8}
	zm, zp := zero.NewMachine(nil, base, pc, nil)
	if zm.Model() != base || zp != pc {
		t.Error("zero spec scaled the model or the power constants")
	}
	if zm.Threads() != 8 || zm.Sockets() != 1 || zm.GrainPolicy() != 0 {
		t.Errorf("zero spec machine: threads %d sockets %d grain %v", zm.Threads(), zm.Sockets(), zm.GrainPolicy())
	}
	if o, d := zero.EngineOptions(&knobless); o != (engines.Options{}) || d != nil {
		t.Errorf("zero spec requested %+v, dropped %v", o, d)
	}

	full := Spec{
		Threads: 8, Workers: 3, Sched: SchedSteal, Sockets: 2, RemotePenalty: 2, Grain: GrainAdaptive,
		Placement: PlacementFirstTouch, FreqState: FreqPowersave, Compress: true, SyncSSSP: true,
		Nodes: 2, Partition: Partition1D, Mutations: &MutationSchedule{Batches: 1, BatchSize: 1},
	}
	fm, p := full.NewMachine(nil, base, pc, nil)
	if !(fm.Model().TurboHz < base.TurboHz) || !(p.LaneWatts < pc.LaneWatts) {
		t.Error("powersave did not scale clocks and lane power down")
	}
	if fm.Workers() != 3 || fm.Sockets() != 2 || fm.GrainPolicy() == 0 {
		t.Errorf("full spec machine: workers %d sockets %d grain %v", fm.Workers(), fm.Sockets(), fm.GrainPolicy())
	}
	// Renewed for the zero spec, the full spec's machine keeps none of it.
	if rm, rp := zero.NewMachine(fm, base, pc, nil); rm != fm || rm.Model() != base || rp != pc ||
		rm.Workers() != zm.Workers() || rm.Sockets() != 1 || rm.GrainPolicy() != 0 {
		t.Errorf("zero spec renewing the full spec's machine: same %v, workers %d sockets %d grain %v",
			rm == fm, rm.Workers(), rm.Sockets(), rm.GrainPolicy())
	}
	want := []string{"compress", "sync-sssp", "mutations"}
	if o, d := full.EngineOptions(&knobless); o != (engines.Options{}) || !reflect.DeepEqual(d, want) {
		t.Errorf("knobless engine requested %+v, dropped %v; want nothing and %v", o, d, want)
	}
	every := engines.Decl{Knobs: engines.Options{SyncSSSP: true, Compress: true, Mutations: true}}
	if o, d := full.EngineOptions(&every); o != every.Knobs || d != nil {
		t.Errorf("engine with every knob requested %+v, dropped %v; want %+v and nothing", o, d, every.Knobs)
	}
	partial := engines.Decl{Knobs: engines.Options{Compress: true}}
	if o, d := full.EngineOptions(&partial); o != partial.Knobs || !reflect.DeepEqual(d, want[1:]) {
		t.Errorf("compress-only engine requested %+v, dropped %v; want %+v and %v", o, d, partial.Knobs, want[1:])
	}
}

// knobless declares an engine that honors no knob.
var knobless engines.Decl

// A spec costs nothing to validate, and a warm machine and an engine's
// options nothing to ready: Validate and every hook take the spec, and
// what they adjust, by value, so validating a spec with every knob set,
// renewing a machine for it and resolving the options of an engine that
// honors them all leave nothing on the heap.
func TestWarmMachineAndOptionsAllocateNothing(t *testing.T) {
	full := Spec{
		Threads: 8, Workers: 2, Sched: SchedNUMA, Sockets: 2, RemotePenalty: 2, Grain: GrainAdaptive,
		Placement: PlacementFirstTouch, FreqState: FreqPowersave, Compress: true, SyncSSSP: true,
		Nodes: 2, Partition: Partition2D, Mutations: &MutationSchedule{Batches: 1, BatchSize: 1},
	}
	full.Dataset, full.Algorithm, full.Engines = "kron-10", engines.PageRank, []string{"GAP"}
	if got := alloctest.BytesPerRun(16, func() {
		if err := full.Validate(); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Spec.Validate allocates %d B", got)
	}
	base, pc := simmachine.Haswell72(), power.DefaultConstants()
	owner := make([]int16, 64)
	m, _ := full.NewMachine(nil, base, pc, owner)
	if got := alloctest.BytesPerRun(16, func() { m, _ = full.NewMachine(m, base, pc, owner) }); got != 0 {
		t.Errorf("Spec.NewMachine on a renewed machine allocates %d B", got)
	}
	every := engines.Decl{Knobs: engines.Options{SyncSSSP: true, Compress: true, Mutations: true}}
	if got := alloctest.BytesPerRun(16, func() {
		if _, d := full.EngineOptions(&every); d != nil {
			t.Fatalf("dropped %v", d)
		}
	}); got != 0 {
		t.Errorf("Spec.EngineOptions allocates %d B", got)
	}
}
