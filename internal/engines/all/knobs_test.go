// Knob liveness: every core.Knobs entry must reach what it stands for
// through harness.Runner, end to end. FuzzSpec holds that no knob
// changes an answer or depends on the schedule; here each knob must
// move the Result field it exists to move, its named default and its
// degenerate values must equal the spec without it bit for bit, and a
// value outside the table must be rejected.
package all

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/harness"
	"github.com/hpcl-repro/epg/internal/kronecker"
)

// A move is a change the knob must make to a run, checked against the
// run of the same spec without the knob.
type move func(with, without []core.Result) error

// differs requires f of some trial of every engine to differ.
func differs(name string, f func(core.Result) float64) move {
	return func(with, without []core.Result) error {
		moved := map[string]bool{}
		for i := range with {
			moved[with[i].Engine] = moved[with[i].Engine] || f(with[i]) != f(without[i])
		}
		for engine, ok := range moved {
			if !ok {
				return fmt.Errorf("%s: %s identical to the spec without the knob", engine, name)
			}
		}
		return nil
	}
}

// every requires f of every trial to compare to the run without the
// knob as cmp says ("rise" or "fall").
func every(name, cmp string, f func(core.Result) float64) move {
	return func(with, without []core.Result) error {
		for i := range with {
			a, b := f(with[i]), f(without[i])
			if cmp == "rise" && a <= b || cmp == "fall" && a >= b {
				return fmt.Errorf("%s trial %d: %s %v does not %s from %v", with[i].Engine, with[i].Trial, name, a, cmp, b)
			}
		}
		return nil
	}
}

// batchRows requires n streaming rows after the baseline trials.
func batchRows(n int) move {
	return func(with, without []core.Result) error {
		if len(with) != len(without)+n || with[len(with)-1].Batch != n {
			return fmt.Errorf("%d rows with the knob, %d without: want %d per-batch rows", len(with), len(without), n)
		}
		return nil
	}
}

var (
	algorithmSec    = func(r core.Result) float64 { return r.AlgorithmSec }
	constructionSec = func(r core.Result) float64 { return r.ConstructionSec }
	netBytes        = func(r core.Result) float64 { return r.NetBytes }
	avgCPUWatts     = func(r core.Result) float64 { return r.AvgCPUWatts }
)

// liveRow is one knob's row. Every spec carries the row's companions:
// a live value is laid over each of on, and so is an inert one.
type liveRow struct {
	on    []core.Spec // the engine/kernel pairs with the companion knobs
	live  []core.Spec // non-default values; each must make every move
	moves []move
	inert []core.Spec // values that must equal the spec without the knob
	// pinnedBy names the test that pins an effect the test graph
	// cannot show.
	pinnedBy string
}

// liveRows has one row per knob, by name.
var liveRows = map[string]liveRow{
	"workers": {
		on:       []core.Spec{{Algorithm: engines.BFS, Engines: []string{GAP}}},
		inert:    []core.Spec{{Workers: 1}, {Workers: 2}, {Workers: 4}, {Workers: 7}},
		pinnedBy: "core.TestKnobHooksReachTheirTargets", // wall-clock only
	},
	"sched": {
		on:    []core.Spec{{Algorithm: engines.BFS, Engines: []string{GAP}}},
		live:  []core.Spec{{Sched: core.SchedStatic}, {Sched: core.SchedSteal}},
		moves: []move{differs("AlgorithmSec", algorithmSec)},
	},
	"sockets": {
		on:    []core.Spec{{Algorithm: engines.SSSP, Engines: []string{GAP, GraphBIG}, Sched: core.SchedNUMA, SyncSSSP: true}},
		live:  []core.Spec{{Sockets: 4}},
		moves: []move{differs("AlgorithmSec", algorithmSec)},
		inert: []core.Spec{{Sockets: 1}},
	},
	"remote-penalty": {
		on:       []core.Spec{{Algorithm: engines.SSSP, Sched: core.SchedNUMA, SyncSSSP: true}},
		live:     []core.Spec{{RemotePenalty: 3, Sockets: 4}},
		inert:    []core.Spec{{RemotePenalty: 3}, {RemotePenalty: 3, Sockets: 1}},
		pinnedBy: "simmachine.TestSetRemotePenaltyOverridesModel", // no region here is memory-bound
	},
	"grain": {
		on:    []core.Spec{{Algorithm: engines.BFS, Engines: []string{GAP}}},
		live:  []core.Spec{{Grain: core.GrainAdaptive}},
		moves: []move{differs("AlgorithmSec", algorithmSec)},
		inert: []core.Spec{{Grain: core.GrainFixed}},
	},
	"placement": {
		on:    []core.Spec{{Algorithm: engines.BFS, Engines: []string{GAP}, Sched: core.SchedNUMA, Sockets: 4}},
		live:  []core.Spec{{Placement: core.PlacementFirstTouch}},
		moves: []move{differs("AlgorithmSec", algorithmSec)},
		inert: []core.Spec{{Placement: core.PlacementNone}},
	},
	"freq": {
		on:    []core.Spec{{Algorithm: engines.PageRank, Engines: []string{GAP}}},
		live:  []core.Spec{{FreqState: core.FreqBalanced}, {FreqState: core.FreqPowersave}},
		moves: []move{every("AlgorithmSec", "rise", algorithmSec), every("AvgCPUWatts", "fall", avgCPUWatts)},
		inert: []core.Spec{{FreqState: core.FreqTurbo}},
	},
	"compress": {
		on: []core.Spec{
			{Algorithm: engines.BFS, Engines: []string{GAP, Graph500}},
			{Algorithm: engines.PageRank, Engines: []string{GAP}},
		},
		live:  []core.Spec{{Compress: true}},
		moves: []move{differs("AlgorithmSec", algorithmSec), differs("ConstructionSec", constructionSec)},
	},
	"sync-sssp": {
		on:    []core.Spec{{Algorithm: engines.SSSP, Engines: []string{GAP, GraphBIG}}},
		live:  []core.Spec{{SyncSSSP: true}},
		moves: []move{differs("AlgorithmSec", algorithmSec)},
	},
	"nodes": {
		on:    []core.Spec{{Algorithm: engines.BFS}},
		live:  []core.Spec{{Nodes: 4}},
		moves: []move{differs("AlgorithmSec", algorithmSec), every("NetBytes", "rise", netBytes)},
		inert: []core.Spec{{Nodes: 1}, {Nodes: 1, Partition: core.Partition1D}, {Nodes: 1, Partition: core.Partition2D}},
	},
	"partition": {
		on:    []core.Spec{{Algorithm: engines.BFS, Engines: []string{GAP, GraphMat}, Nodes: 4}},
		live:  []core.Spec{{Partition: core.Partition2D}},
		moves: []move{differs("NetBytes", netBytes)},
		inert: []core.Spec{{Partition: core.Partition1D}},
	},
	"mutations": {
		on: []core.Spec{
			{Algorithm: engines.PageRank, Engines: []string{GAP}},
			{Algorithm: engines.WCC, Engines: []string{GAP}},
		},
		live:  []core.Spec{{Mutations: &core.MutationSchedule{Batches: 2, BatchSize: 16, DeleteFrac: 0.25, Seed: 1}}},
		moves: []move{batchRows(2)},
	},
}

// overlay lays every knob delta sets over s.
func overlay(s, delta core.Spec) core.Spec {
	for i := range core.Knobs {
		k := &core.Knobs[i]
		if v := reflect.ValueOf(k.Field(&delta)).Elem(); !v.IsZero() {
			reflect.ValueOf(k.Field(&s)).Elem().Set(v)
		}
	}
	return s
}

// outOfTable is a value of k's field that Validate rejects, derived
// from its type as core.TestKnobsValidate derives one; nil for a
// switch, which has none.
func outOfTable(k *core.Knob) any {
	switch k.Field(new(core.Spec)).(type) {
	case *string:
		return "bogus"
	case *int:
		return -1
	case *float64:
		return -1.0
	case **core.MutationSchedule:
		return &core.MutationSchedule{}
	}
	return nil
}

// TestKnobsLive runs every knob's row through harness.Runner on
// kron-9: each live and inert value at workers 1 and 4, which must be
// bit-equal, against the spec without the knob at workers 1. A knob
// whose row makes no move must name the test that pins its effect.
func TestKnobsLive(t *testing.T) {
	el := kronecker.Generate(kronecker.Params{Scale: 9, Seed: 7})
	r := harness.NewRunner(Registry())
	run := func(t *testing.T, s core.Spec, workers int) []core.Result {
		t.Helper()
		s.Dataset, s.Threads, s.Roots, s.Seed, s.MeasurePower = "kron-9", 8, 3, 5, true
		if s.Workers == 0 {
			s.Workers = workers
		}
		rs, err := r.Run(s, el)
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		for i := range rs {
			if rs[i].NetBytes != 0 && s.Nodes <= 1 {
				t.Errorf("%+v: a single box sent %v bytes", s, rs[i].NetBytes)
			}
			rs[i].WallSec = 0
		}
		return rs
	}
	for i := range core.Knobs {
		k := &core.Knobs[i]
		row, ok := liveRows[k.Name]
		if !ok {
			t.Errorf("knob %s has no TestKnobsLive row", k.Name)
			continue
		}
		knob := func(s *core.Spec) reflect.Value { return reflect.ValueOf(k.Field(s)).Elem() }
		t.Run(k.Name, func(t *testing.T) {
			if len(row.moves) == 0 && row.pinnedBy == "" {
				t.Error("the row makes no move and names no test that pins the knob")
			}
			if v := outOfTable(k); v != nil {
				bad := core.Spec{Dataset: "kron-9", Algorithm: engines.BFS, Threads: 8}
				knob(&bad).Set(reflect.ValueOf(v))
				if _, err := r.Run(bad, el); err == nil {
					t.Errorf("%s = %v accepted", k.Name, v)
				}
			}
			for _, base := range row.on {
				if !knob(&base).IsZero() {
					t.Fatalf("%+v: a row's spec sets its own knob", base)
				}
				without := run(t, base, 1)
				check := func(delta core.Spec, inert bool) {
					if knob(&delta).IsZero() {
						t.Fatalf("%+v: a value does not set the knob", delta)
					}
					s := overlay(base, delta)
					label := fmt.Sprintf("%s %v", s.Algorithm, reflect.Indirect(knob(&delta)))
					with := run(t, s, 1)
					if again := run(t, s, 4); !reflect.DeepEqual(with, again) {
						t.Errorf("%s: workers 4 differ from 1:\n  %+v\n  %+v", label, again, with)
					}
					if inert {
						if !reflect.DeepEqual(with, without) {
							t.Errorf("%s: differs from the spec without it:\n  %+v\n  %+v", label, with, without)
						}
						return
					}
					for _, m := range row.moves {
						if err := m(with, without); err != nil {
							t.Errorf("%s: %v", label, err)
						}
					}
				}
				for _, v := range row.live {
					check(v, false)
				}
				for _, v := range row.inert {
					check(v, true)
				}
			}
		})
	}
	for name := range liveRows {
		if !slices.ContainsFunc(core.Knobs, func(k core.Knob) bool { return k.Name == name }) {
			t.Errorf("TestKnobsLive row %s names no knob", name)
		}
	}
}
