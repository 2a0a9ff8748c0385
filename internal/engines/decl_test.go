package engines_test

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// recorder is an instance that records what it was bound with and how
// often it was built.
type recorder struct {
	engines.Unsupported
	opts   engines.Options
	builds int
}

func (r *recorder) Bind(_ *graph.Simple, _ *simmachine.Machine, o engines.Options) {
	r.opts, r.builds = o, 0
}
func (r *recorder) BuildStructure() { r.builds++ }

// declare returns a declaration whose instances are recorders.
func declare(name string, separate bool, knobs engines.Options) *engines.Decl {
	return &engines.Decl{
		Name: name, Kernels: []engines.Algorithm{engines.BFS, engines.WCC},
		SeparateConstruction: separate, Knobs: knobs,
		New: func() engines.Instance { return new(recorder) },
	}
}

// everyOptions enumerates all eight knob sets.
func everyOptions() []engines.Options {
	var out []engines.Options
	for bits := 0; bits < 8; bits++ {
		out = append(out, engines.Options{SyncSSSP: bits&1 != 0, Compress: bits&2 != 0, Mutations: bits&4 != 0})
	}
	return out
}

func TestHasFollowsKernels(t *testing.T) {
	d := declare("X", true, engines.Options{})
	for _, alg := range engines.AllAlgorithms {
		if want := alg == engines.BFS || alg == engines.WCC; d.Has(alg) != want {
			t.Errorf("Has(%s) = %v, want %v", alg, !want, want)
		}
	}
}

func TestHonoredIsTheDeclaredPart(t *testing.T) {
	for _, knobs := range everyOptions() {
		d := declare("X", true, knobs)
		for _, req := range everyOptions() {
			want := engines.Options{
				SyncSSSP:  req.SyncSSSP && knobs.SyncSSSP,
				Compress:  req.Compress && knobs.Compress,
				Mutations: req.Mutations && knobs.Mutations,
			}
			if got := d.Honored(req); got != want {
				t.Errorf("knobs %+v, request %+v: honored %+v, want %+v", knobs, req, got, want)
			}
		}
	}
}

// TestConfigureSetsWhatLoadsBind: the instances an engine loads are bound
// with the honored part of the last request, not with the union of every
// request so far — a knob left out of the next request is off again.
func TestConfigureSetsWhatLoadsBind(t *testing.T) {
	e := &engines.Engine{Decl: declare("X", true, engines.Options{SyncSSSP: true, Compress: true})}
	if got := e.LoadSimple(nil, nil).(*recorder).opts; got != (engines.Options{}) {
		t.Fatalf("an unconfigured engine bound %+v", got)
	}
	got := engines.Configure(e, engines.Options{SyncSSSP: true, Compress: true, Mutations: true})
	if want := (engines.Options{SyncSSSP: true, Compress: true}); got != want {
		t.Fatalf("Configure returned %+v, want %+v (mutations dropped)", got, want)
	}
	if bound := e.LoadSimple(nil, nil).(*recorder).opts; bound != got {
		t.Fatalf("load bound %+v, Configure reported %+v", bound, got)
	}
	engines.Configure(e, engines.Options{Compress: true})
	if bound := e.LoadSimple(nil, nil).(*recorder).opts; bound != (engines.Options{Compress: true}) {
		t.Fatalf("after a compress-only request the load bound %+v", bound)
	}
}

// TestLoadSimpleChargesTheCombinedPhase: an engine that builds while it
// reads has its structure built by the load; one with a construction
// phase of its own leaves it to BuildStructure.
func TestLoadSimpleChargesTheCombinedPhase(t *testing.T) {
	for _, separate := range []bool{true, false} {
		e := &engines.Engine{Decl: declare("X", separate, engines.Options{})}
		want := 1
		if separate {
			want = 0
		}
		if got := e.LoadSimple(nil, nil).(*recorder).builds; got != want {
			t.Errorf("separate construction %v: the load built %d times, want %d", separate, got, want)
		}
	}
}

func TestLoadRejectsAnInvalidEdgeList(t *testing.T) {
	e := &engines.Engine{Decl: declare("X", true, engines.Options{})}
	bad := &graph.EdgeList{NumVertices: 2, Edges: []graph.Edge{{Src: 0, Dst: 9}}}
	if _, err := e.Load(bad, nil); err == nil {
		t.Error("an edge list with an out-of-range endpoint loaded")
	}
}

func TestRegistryLooksUpByName(t *testing.T) {
	reg := engines.Registry{declare("Zeta", true, engines.Options{}), declare("Alpha", false, engines.Options{})}
	if got := reg.Names(); !slices.Equal(got, []string{"Zeta", "Alpha"}) {
		t.Errorf("Names = %v, want registry order", got)
	}
	if d, err := reg.Decl("Alpha"); err != nil || d != reg[1] {
		t.Errorf("Decl(Alpha) = %v, %v", d, err)
	}
	_, err := reg.Decl("Pregel")
	if err == nil || !strings.Contains(err.Error(), `unknown engine "Pregel" (have [Alpha Zeta])`) {
		t.Errorf("unknown name: %v", err)
	}
}

func TestUnsupportedAnswersEveryKernel(t *testing.T) {
	var inst engines.Instance = new(recorder)
	for _, alg := range engines.AllAlgorithms {
		if _, err := engines.RunAlgorithm(inst, alg, 0); !errors.Is(err, engines.ErrUnsupported) {
			t.Errorf("%s: err = %v, want ErrUnsupported", alg, err)
		}
	}
}
