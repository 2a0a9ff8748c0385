package gap

import (
	"errors"
	"math"
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

func load(t *testing.T, e *engines.Engine, el *graph.EdgeList, threads int) *Instance {
	t.Helper()
	inst, err := e.Load(el, machine(threads))
	if err != nil {
		t.Fatal(err)
	}
	inst.(*Instance).BuildStructure()
	return inst.(*Instance)
}

func kron(scale int, seed uint64) *graph.EdgeList {
	return kronecker.Generate(kronecker.Params{Scale: scale, Seed: seed})
}

func TestEngineMetadata(t *testing.T) {
	e := engine()
	if e.Name != "GAP" {
		t.Errorf("name = %q", e.Name)
	}
	if !e.SeparateConstruction {
		t.Error("GAP must have a separate construction phase")
	}
	if p := e.New().(*Instance).Params; p.Alpha != DefaultAlpha || p.Beta != DefaultBeta || p.Delta != DefaultDelta {
		t.Errorf("defaults not applied: %+v", p)
	}
}

func TestLoadRejectsInvalid(t *testing.T) {
	bad := &graph.EdgeList{NumVertices: 2, Edges: []graph.Edge{{Src: 0, Dst: 9}}}
	if _, err := engine().Load(bad, machine(2)); err == nil {
		t.Error("invalid edge list accepted")
	}
}

func TestUnsupportedAlgorithms(t *testing.T) {
	inst := load(t, engine(), kron(6, 1), 2)
	if _, err := inst.CDLP(5, nil); !errors.Is(err, engines.ErrUnsupported) {
		t.Error("CDLP should be unsupported")
	}
	if _, err := inst.LCC(nil); !errors.Is(err, engines.ErrUnsupported) {
		t.Error("LCC should be unsupported")
	}
}

func TestDirectionOptimizationTriggers(t *testing.T) {
	// On a dense Kronecker graph the frontier explodes quickly:
	// edges examined should be well below the full top-down count
	// (which is ~every directed edge).
	el := kron(12, 5)
	p := verify.Prepare(el)
	inst := load(t, engine(), el, 8)
	var root graph.VID
	for v := 0; v < p.Out.NumVertices; v++ {
		if p.Out.Degree(graph.VID(v)) > 1 {
			root = graph.VID(v)
			break
		}
	}
	res, err := inst.BFS(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	full := p.Out.NumEdges()
	if res.EdgesExamined >= full {
		t.Errorf("examined %d edges of %d: direction optimization never engaged", res.EdgesExamined, full)
	}
	// And the result must still be exact.
	ref := verify.BFS(p, root)
	if err := verify.ValidateBFS(p, res, ref); err != nil {
		t.Error(err)
	}
}

func TestAlphaDisablesBottomUp(t *testing.T) {
	// Alpha <= 0 disables the bottom-up switch, so examined edges
	// equal the plain top-down count: one inspection per out-edge
	// of every reached vertex.
	el := kron(10, 9)
	p := verify.Prepare(el)
	inst := load(t, engine(), el, 4)
	inst.Alpha = 0
	root := graph.VID(0)
	for v := 0; v < p.Out.NumVertices; v++ {
		if p.Out.Degree(graph.VID(v)) > 1 {
			root = graph.VID(v)
			break
		}
	}
	res, err := inst.BFS(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	ref := verify.BFS(p, root)
	for v := 0; v < p.Out.NumVertices; v++ {
		if ref.Parent[v] != engines.NoParent {
			want += p.Out.Degree(graph.VID(v))
		}
	}
	if res.EdgesExamined != want {
		t.Errorf("top-down examined %d edges, want %d", res.EdgesExamined, want)
	}
}

func TestSSSPDeltaInsensitivity(t *testing.T) {
	// Distances must be identical (within float noise) for any Δ.
	el := kron(10, 3)
	p := verify.Prepare(el)
	root := graph.VID(1)
	for v := 0; v < p.Out.NumVertices; v++ {
		if p.Out.Degree(graph.VID(v)) > 1 {
			root = graph.VID(v)
			break
		}
	}
	ref := verify.SSSP(p, root)
	for _, delta := range []float64{0.05, 0.25, 1.5} {
		inst := load(t, engine(), el, 4)
		inst.Delta = delta
		res, err := inst.SSSP(root, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.ValidateSSSP(p, res, ref); err != nil {
			t.Errorf("delta=%v: %v", delta, err)
		}
	}
}

func TestSSSPUnweightedUnsupported(t *testing.T) {
	el := &graph.EdgeList{NumVertices: 3, Directed: true,
		Edges: []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}}
	inst := load(t, engine(), el, 2)
	if _, err := inst.SSSP(0, nil); !errors.Is(err, engines.ErrUnsupported) {
		t.Errorf("err = %v, want ErrUnsupported", err)
	}
}

func TestPageRankConvergesAndNormalizes(t *testing.T) {
	el := kron(10, 7)
	inst := load(t, engine(), el, 4)
	res, err := inst.PageRank(engines.PROpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range res.Rank {
		sum += r
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("ranks sum to %v", sum)
	}
	if res.Iterations <= 1 {
		t.Errorf("converged suspiciously fast: %d iterations", res.Iterations)
	}
	// Tighter epsilon cannot converge in fewer iterations.
	strict, err := inst.PageRank(engines.PROpts{Epsilon: 1e-10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if strict.Iterations < res.Iterations {
		t.Errorf("stricter epsilon took fewer iterations (%d < %d)", strict.Iterations, res.Iterations)
	}
}

func TestBFSModelTimeScalesDown(t *testing.T) {
	// More virtual threads => less modeled BFS time on a sizable
	// graph (up to bandwidth limits). Small graphs are dominated by
	// fork/barrier overhead — the paper's own scaling caveat — so
	// this uses the largest quick-test scale.
	el := kron(16, 2)
	p := verify.Prepare(el)
	var root graph.VID
	for v := 0; v < p.Out.NumVertices; v++ {
		if p.Out.Degree(graph.VID(v)) > 1 {
			root = graph.VID(v)
			break
		}
	}
	elapsed := func(threads int) float64 {
		inst := load(t, engine(), el, threads)
		m := inst.m
		start := m.Elapsed()
		if _, err := inst.BFS(root, nil); err != nil {
			t.Fatal(err)
		}
		return m.Elapsed() - start
	}
	t1, t8 := elapsed(1), elapsed(8)
	if t8 >= t1 {
		t.Errorf("8 threads (%v) not faster than 1 (%v)", t8, t1)
	}
	if speedup := t1 / t8; speedup < 1.5 {
		t.Errorf("8-thread speedup only %.2f", speedup)
	}
}

func TestBuildStructureChargesTime(t *testing.T) {
	m := machine(8)
	inst, err := engine().Load(kron(12, 4), m)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Elapsed()
	inst.BuildStructure()
	if m.Elapsed() <= before {
		t.Error("construction charged no modeled time")
	}
}

func TestWCCMatchesReference(t *testing.T) {
	el := kron(10, 13)
	p := verify.Prepare(el)
	ref := verify.WCC(p)
	inst := load(t, engine(), el, 4)
	got, err := inst.WCC(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.ValidateWCC(got, ref); err != nil {
		t.Error(err)
	}
}
