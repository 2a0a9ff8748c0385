package graph500

import (
	"errors"
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
	if e.Name != "Graph500" {
		t.Errorf("name = %q", e.Name)
	}
	if !e.SeparateConstruction {
		t.Error("Kernel 1 must be a separate phase")
	}
	if !e.Has(engines.BFS) {
		t.Error("must have BFS")
	}
	for _, alg := range []engines.Algorithm{engines.SSSP, engines.PageRank, engines.CDLP, engines.LCC, engines.WCC} {
		if e.Has(alg) {
			t.Errorf("Graph500 should not provide %s", alg)
		}
	}
}

func TestOnlyBFSRuns(t *testing.T) {
	el := kronecker.Generate(kronecker.Params{Scale: 8, Seed: 1})
	inst, err := engine().Load(el, machine(2))
	if err != nil {
		t.Fatal(err)
	}
	inst.BuildStructure()
	if _, err := inst.SSSP(0, nil); !errors.Is(err, engines.ErrUnsupported) {
		t.Error("SSSP should be unsupported")
	}
	if _, err := inst.PageRank(engines.PROpts{}, nil); !errors.Is(err, engines.ErrUnsupported) {
		t.Error("PageRank should be unsupported")
	}
	if _, err := inst.CDLP(1, nil); !errors.Is(err, engines.ErrUnsupported) {
		t.Error("CDLP should be unsupported")
	}
	if _, err := inst.LCC(nil); !errors.Is(err, engines.ErrUnsupported) {
		t.Error("LCC should be unsupported")
	}
	if _, err := inst.WCC(nil); !errors.Is(err, engines.ErrUnsupported) {
		t.Error("WCC should be unsupported")
	}
}

func TestBFSValidAcrossRoots(t *testing.T) {
	// The Graph500 protocol: one construction, many roots
	// back-to-back. Validate each against the reference.
	el := kronecker.Generate(kronecker.Params{Scale: 10, Seed: 6})
	p := verify.Prepare(el)
	inst, err := engine().Load(el, machine(4))
	if err != nil {
		t.Fatal(err)
	}
	inst.BuildStructure()
	count := 0
	for v := 0; v < p.Out.NumVertices && count < 8; v++ {
		if p.Out.Degree(graph.VID(v)) <= 1 {
			continue
		}
		count++
		root := graph.VID(v)
		got, err := inst.BFS(root, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.ValidateBFS(p, got, verify.BFS(p, root)); err != nil {
			t.Errorf("root %d: %v", root, err)
		}
		if got.EdgesExamined == 0 {
			t.Errorf("root %d: no edges examined", root)
		}
	}
	if count == 0 {
		t.Fatal("no usable roots found")
	}
}

func TestBFSWithoutExplicitBuild(t *testing.T) {
	el := kronecker.Generate(kronecker.Params{Scale: 8, Seed: 2})
	inst, err := engine().Load(el, machine(2))
	if err != nil {
		t.Fatal(err)
	}
	// BFS must lazily construct.
	if _, err := inst.BFS(0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStaticSchedulingCharged(t *testing.T) {
	// The modeled time at 2 threads should be visibly worse than
	// perfect halving on a skewed graph (static imbalance plus
	// atomics), which is the mechanism behind the paper's Fig. 6
	// efficiency dip for the Graph500.
	el := kronecker.Generate(kronecker.Params{Scale: 12, Seed: 3})
	run := func(threads int) float64 {
		m := machine(threads)
		inst, err := engine().Load(el, m)
		if err != nil {
			t.Fatal(err)
		}
		inst.BuildStructure()
		start := m.Elapsed()
		if _, err := inst.BFS(1, nil); err != nil {
			t.Fatal(err)
		}
		return m.Elapsed() - start
	}
	t1, t2 := run(1), run(2)
	eff := t1 / (2 * t2)
	if eff > 1.0 {
		t.Errorf("2-thread efficiency %.2f above ideal", eff)
	}
	if eff < 0.2 {
		t.Errorf("2-thread efficiency %.2f implausibly poor", eff)
	}
}
