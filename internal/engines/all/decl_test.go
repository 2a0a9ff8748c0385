// Declaration walls: each engine's Decl says which kernels it provides,
// whether its construction is a phase of its own and which knobs it
// honors. These tests hold every declaration to what its instances do,
// so the table cannot drift from the code it describes.
package all

import (
	"errors"
	"slices"
	"testing"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/kronecker"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// declGraph is a small weighted graph every kernel runs on.
func declGraph(t *testing.T) *graph.Simple {
	t.Helper()
	g, err := graph.Homogenize(kronecker.Generate(kronecker.Params{Scale: 8, Seed: 5}))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestDeclaredKernelsAreTheSupportedOnes: an engine's instance answers
// ErrUnsupported for exactly the kernels its Decl leaves out, and the
// Decl lists its kernels once each, in AllAlgorithms order.
func TestDeclaredKernelsAreTheSupportedOnes(t *testing.T) {
	g := declGraph(t)
	for _, d := range Registry() {
		var order []engines.Algorithm
		for _, alg := range engines.AllAlgorithms {
			if d.Has(alg) {
				order = append(order, alg)
			}
		}
		if !slices.Equal(d.Kernels, order) {
			t.Errorf("%s declares %v; want each kernel once, in AllAlgorithms order (%v)", d.Name, d.Kernels, order)
		}
		inst := (&engines.Engine{Decl: d}).LoadSimple(g, newMachine())
		inst.BuildStructure()
		for _, alg := range engines.AllAlgorithms {
			_, err := engines.RunAlgorithm(inst, alg, 1)
			if unsupported := errors.Is(err, engines.ErrUnsupported); unsupported == d.Has(alg) {
				t.Errorf("%s %s: declared %v, but the instance returned %v", d.Name, alg, d.Has(alg), err)
			} else if err != nil && !unsupported {
				t.Errorf("%s %s: %v", d.Name, alg, err)
			}
		}
	}
}

// TestDeclaredPhasesMatchTheCharges: binding charges nothing; an engine
// with a construction phase of its own builds without reading the file
// (the harness charges the read before it), and one that builds while
// it reads charges the file read inside its build.
func TestDeclaredPhasesMatchTheCharges(t *testing.T) {
	g := declGraph(t)
	for _, d := range Registry() {
		m := newMachine()
		inst := d.New()
		inst.Bind(g, m, engines.Options{})
		if m.Elapsed() != 0 {
			t.Errorf("%s: Bind charged %g s", d.Name, m.Elapsed())
		}
		inst.BuildStructure()
		reads := 0
		for _, r := range m.Trace() {
			if r.IO {
				reads++
			}
		}
		if d.SeparateConstruction && (reads != 0 || m.Elapsed() <= 0) {
			t.Errorf("%s declares a separate construction phase, but its build read the file %d times and charged %g s", d.Name, reads, m.Elapsed())
		}
		if !d.SeparateConstruction && reads != 1 {
			t.Errorf("%s declares one read+build phase, but its build read the file %d times", d.Name, reads)
		}
	}
}

// TestDeclaredKnobsAreTheHonoredOnes binds every engine's instance with
// each knob on and off, bypassing the declaration's filter, and runs the
// kernel the knob reaches: a declared knob must change the modeled trace
// of construction plus kernel, an undeclared one must leave it bit for
// bit alone. An engine declares Mutations exactly when its instances
// are Streamers.
func TestDeclaredKnobsAreTheHonoredOnes(t *testing.T) {
	g := declGraph(t)
	knobs := []struct {
		name     string
		opts     engines.Options
		declared func(engines.Options) bool
		algs     []engines.Algorithm // the first the engine has is run
	}{
		{"sync-sssp", engines.Options{SyncSSSP: true}, func(o engines.Options) bool { return o.SyncSSSP }, []engines.Algorithm{engines.SSSP}},
		{"compress", engines.Options{Compress: true}, func(o engines.Options) bool { return o.Compress }, []engines.Algorithm{engines.BFS, engines.PageRank}},
	}
	trace := func(d *engines.Decl, o engines.Options, alg engines.Algorithm) []simmachine.Region {
		m := newMachine()
		m.SetWorkers(1)
		inst := d.New()
		inst.Bind(g, m, o)
		inst.BuildStructure()
		if _, err := engines.RunAlgorithm(inst, alg, 1); err != nil {
			t.Fatalf("%s %s with %+v: %v", d.Name, alg, o, err)
		}
		return m.Trace()
	}
	for _, d := range Registry() {
		for _, k := range knobs {
			i := slices.IndexFunc(k.algs, d.Has)
			if i < 0 {
				if k.declared(d.Knobs) {
					t.Errorf("%s declares %s but has none of %v", d.Name, k.name, k.algs)
				}
				continue
			}
			alg := k.algs[i]
			moved := !slices.Equal(trace(d, engines.Options{}, alg), trace(d, k.opts, alg))
			if moved != k.declared(d.Knobs) {
				t.Errorf("%s %s: declared %v, but the knob moved the %s trace: %v", d.Name, k.name, k.declared(d.Knobs), alg, moved)
			}
		}
		if _, ok := d.New().(engines.Streamer); ok != d.Knobs.Mutations {
			t.Errorf("%s declares mutations %v, but its instance is a Streamer: %v", d.Name, d.Knobs.Mutations, ok)
		}
	}
}
