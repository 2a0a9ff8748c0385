package graphbig

import (
	"testing"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/kronecker"
	"github.com/hpcl-repro/epg/internal/simmachine"
	"github.com/hpcl-repro/epg/internal/verify"
)

func machine(threads int) *simmachine.Machine {
	return simmachine.New(simmachine.Haswell72(), threads)
}

// engine is the declared engine with no knobs requested.
func engine() *engines.Engine { return &engines.Engine{Decl: &Decl} }

func TestMetadata(t *testing.T) {
	e := engine()
	if e.Name != "GraphBIG" {
		t.Errorf("name = %q", e.Name)
	}
	if e.SeparateConstruction {
		t.Error("GraphBIG reads and builds simultaneously")
	}
	for _, alg := range engines.AllAlgorithms {
		if !e.Has(alg) {
			t.Errorf("GraphBIG should provide %s", alg)
		}
	}
}

func TestLoadChargesCombinedReadBuild(t *testing.T) {
	m := machine(4)
	el := kronecker.Generate(kronecker.Params{Scale: 10, Seed: 1})
	inst, err := engine().Load(el, m)
	if err != nil {
		t.Fatal(err)
	}
	if m.Elapsed() <= 0 {
		t.Error("load charged no modeled time")
	}
	// The trace must contain an I/O region: file read and build
	// happen together.
	hasIO := false
	for _, r := range m.Trace() {
		if r.IO {
			hasIO = true
		}
	}
	if !hasIO {
		t.Error("no I/O region recorded during load")
	}
	before := m.Elapsed()
	inst.BuildStructure() // must be a no-op
	if m.Elapsed() != before {
		t.Error("BuildStructure charged time despite combined load")
	}
}

func TestPageRankFloat32Iterations(t *testing.T) {
	// float32 properties: with the ε=6e-8 L1 criterion GraphBIG
	// must take at least as many iterations as a float64 engine on
	// the same graph (it cannot cut below the precision floor
	// faster).
	el := kronecker.Generate(kronecker.Params{Scale: 10, Seed: 2})
	p := verify.Prepare(el)
	ref := verify.PageRank(p, engines.PROpts{})
	inst, err := engine().Load(el, machine(4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.PageRank(engines.PROpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < ref.Iterations/2 {
		t.Errorf("GraphBIG converged in %d iterations, reference needed %d", res.Iterations, ref.Iterations)
	}
	if err := verify.ValidatePageRank(res, ref, 5e-3); err != nil {
		t.Error(err)
	}
}

func TestNeighborhoodDirected(t *testing.T) {
	el := &graph.EdgeList{
		NumVertices: 4,
		Directed:    true,
		Edges: []graph.Edge{
			{Src: 0, Dst: 1}, {Src: 2, Dst: 0}, {Src: 0, Dst: 3}, {Src: 3, Dst: 0},
		},
	}
	inst, err := engine().Load(el, machine(1))
	if err != nil {
		t.Fatal(err)
	}
	vp := inst.(*Instance).vertices[0]
	nbrs := engines.Neighborhood(new([]graph.VID), vp.out, vp.in, 0)
	want := []graph.VID{1, 2, 3}
	if len(nbrs) != len(want) {
		t.Fatalf("neighborhood = %v, want %v", nbrs, want)
	}
	for i := range want {
		if nbrs[i] != want[i] {
			t.Fatalf("neighborhood = %v, want %v", nbrs, want)
		}
	}
}

func TestSSSPOnDenseWeightedGraph(t *testing.T) {
	el := kronecker.Generate(kronecker.Params{Scale: 9, Seed: 8})
	p := verify.Prepare(el)
	inst, err := engine().Load(el, machine(4))
	if err != nil {
		t.Fatal(err)
	}
	var root graph.VID
	for v := 0; v < p.Out.NumVertices; v++ {
		if p.Out.Degree(graph.VID(v)) > 1 {
			root = graph.VID(v)
			break
		}
	}
	got, err := inst.SSSP(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.ValidateSSSP(p, got, verify.SSSP(p, root)); err != nil {
		t.Error(err)
	}
	if got.Relaxations == 0 {
		t.Error("no relaxations recorded")
	}
}

func TestCDLPIterationCap(t *testing.T) {
	el := kronecker.Generate(kronecker.Params{Scale: 8, Seed: 4})
	inst, err := engine().Load(el, machine(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.CDLP(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 3 {
		t.Errorf("ran %d iterations, cap was 3", res.Iterations)
	}
}
