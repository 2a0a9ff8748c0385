// Conformance tests: every engine's every supported algorithm is
// validated against the serial references on a range of graph shapes.
package all

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"testing"

	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/datasets"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/kronecker"
	"github.com/hpcl-repro/epg/internal/power"
	"github.com/hpcl-repro/epg/internal/simmachine"
	"github.com/hpcl-repro/epg/internal/verify"
	"github.com/hpcl-repro/epg/internal/xrand"
)

type testGraph struct {
	name string
	el   *graph.EdgeList
}

func testGraphs(t testing.TB) []testGraph {
	t.Helper()
	return []testGraph{
		{"kron10", kronecker.Generate(kronecker.Params{Scale: 10, Seed: 42})},
		{"kron8", kronecker.Generate(kronecker.Params{Scale: 8, Seed: 7})},
		{"dota-small", datasets.GenerateDotaLeague(datasets.Config{ScaleDivisor: 256, Seed: 3})},
		{"patents-small", datasets.GenerateCitPatents(datasets.Config{ScaleDivisor: 2048, Seed: 3})},
		{"path", pathGraph(64)},
		{"two-components", twoComponents()},
	}
}

func pathGraph(n int) *graph.EdgeList {
	el := &graph.EdgeList{NumVertices: n, Weighted: true}
	for i := 0; i < n-1; i++ {
		el.Edges = append(el.Edges, graph.Edge{Src: graph.VID(i), Dst: graph.VID(i + 1), W: 0.25})
	}
	return el
}

func twoComponents() *graph.EdgeList {
	el := &graph.EdgeList{NumVertices: 12, Weighted: true}
	for i := 0; i < 5; i++ {
		el.Edges = append(el.Edges, graph.Edge{Src: graph.VID(i), Dst: graph.VID(i + 1), W: 0.5})
	}
	for i := 6; i < 11; i++ {
		el.Edges = append(el.Edges, graph.Edge{Src: graph.VID(i), Dst: graph.VID(i + 1), W: 0.5})
	}
	// Triangle inside the second component for LCC coverage.
	el.Edges = append(el.Edges, graph.Edge{Src: 6, Dst: 8, W: 0.5})
	return el
}

func newMachine() *simmachine.Machine {
	return simmachine.New(simmachine.Haswell72(), 8)
}

// loadAll returns one prepared instance per engine for the graph.
func loadAll(t *testing.T, el *graph.EdgeList) map[string]engines.Instance {
	t.Helper()
	return loadAllWith(t, el, core.Spec{})
}

func roots(p *verify.Prepared, count int) []graph.VID {
	var rs []graph.VID
	for v := 0; v < p.Out.NumVertices && len(rs) < count; v++ {
		if p.Out.Degree(graph.VID(v)) > 1 {
			rs = append(rs, graph.VID(v))
		}
	}
	return rs
}

func TestRegistryHasFiveEngines(t *testing.T) {
	want := []string{Graph500, GAP, GraphBIG, GraphMat, PowerGraph}
	if !slices.Equal(Names, want) {
		t.Fatalf("registry lists %v, want the five engines in presentation order %v", Names, want)
	}
	if _, err := New("Ligra"); err == nil {
		t.Error("unknown engine accepted")
	}
}

func TestCapabilitiesMatchPaper(t *testing.T) {
	want := map[string]map[engines.Algorithm]bool{
		Graph500:   {engines.BFS: true},
		GAP:        {engines.BFS: true, engines.SSSP: true, engines.PageRank: true, engines.WCC: true},
		GraphBIG:   {engines.BFS: true, engines.SSSP: true, engines.PageRank: true, engines.CDLP: true, engines.LCC: true, engines.WCC: true},
		GraphMat:   {engines.BFS: true, engines.SSSP: true, engines.PageRank: true, engines.CDLP: true, engines.LCC: true, engines.WCC: true},
		PowerGraph: {engines.SSSP: true, engines.PageRank: true, engines.CDLP: true, engines.LCC: true, engines.WCC: true},
	}
	for name, caps := range want {
		eng, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range engines.AllAlgorithms {
			if got := eng.Has(alg); got != caps[alg] {
				t.Errorf("%s.Has(%s) = %v, want %v", name, alg, got, caps[alg])
			}
		}
	}
	// Construction phases per the paper: GraphBIG and PowerGraph
	// build while reading.
	sep := map[string]bool{Graph500: true, GAP: true, GraphMat: true, GraphBIG: false, PowerGraph: false}
	for name, want := range sep {
		eng, _ := New(name)
		if got := eng.SeparateConstruction; got != want {
			t.Errorf("%s.SeparateConstruction = %v, want %v", name, got, want)
		}
	}
}

func TestBFSConformance(t *testing.T) {
	for _, tg := range testGraphs(t) {
		t.Run(tg.name, func(t *testing.T) {
			p := verify.Prepare(tg.el)
			insts := loadAll(t, tg.el)
			for _, root := range roots(p, 3) {
				ref := verify.BFS(p, root)
				for name, inst := range insts {
					got, err := inst.BFS(root, nil)
					if errors.Is(err, engines.ErrUnsupported) {
						continue
					}
					if err != nil {
						t.Fatalf("%s BFS: %v", name, err)
					}
					if err := verify.ValidateBFS(p, got, ref); err != nil {
						t.Errorf("%s root %d: %v", name, root, err)
					}
				}
			}
		})
	}
}

func TestSSSPConformance(t *testing.T) {
	for _, tg := range testGraphs(t) {
		if !tg.el.Weighted {
			continue
		}
		t.Run(tg.name, func(t *testing.T) {
			p := verify.Prepare(tg.el)
			insts := loadAll(t, tg.el)
			for _, root := range roots(p, 2) {
				ref := verify.SSSP(p, root)
				for name, inst := range insts {
					got, err := inst.SSSP(root, nil)
					if errors.Is(err, engines.ErrUnsupported) {
						continue
					}
					if err != nil {
						t.Fatalf("%s SSSP: %v", name, err)
					}
					if err := verify.ValidateSSSP(p, got, ref); err != nil {
						t.Errorf("%s root %d: %v", name, root, err)
					}
				}
			}
		})
	}
}

func TestSSSPUnsupportedOnUnweighted(t *testing.T) {
	// cit-Patents is unweighted: SSSP must be N/A (Table I).
	el := datasets.GenerateCitPatents(datasets.Config{ScaleDivisor: 4096, Seed: 1})
	insts := loadAll(t, el)
	for name, inst := range insts {
		if name == Graph500 {
			continue // BFS-only anyway
		}
		if _, err := inst.SSSP(0, nil); !errors.Is(err, engines.ErrUnsupported) {
			t.Errorf("%s SSSP on unweighted graph: err = %v, want ErrUnsupported", name, err)
		}
	}
}

func TestPageRankConformance(t *testing.T) {
	tolerances := map[string]float64{
		GAP:        1e-6,
		PowerGraph: 1e-6,
		GraphBIG:   5e-3, // float32 properties
		GraphMat:   5e-3, // float32 properties
	}
	for _, tg := range testGraphs(t) {
		t.Run(tg.name, func(t *testing.T) {
			p := verify.Prepare(tg.el)
			ref := verify.PageRank(p, engines.PROpts{})
			insts := loadAll(t, tg.el)
			for name, inst := range insts {
				got, err := inst.PageRank(engines.PROpts{}, nil)
				if errors.Is(err, engines.ErrUnsupported) {
					continue
				}
				if err != nil {
					t.Fatalf("%s PR: %v", name, err)
				}
				if err := verify.ValidatePageRank(got, ref, tolerances[name]); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				if got.Iterations < 1 {
					t.Errorf("%s: no iterations recorded", name)
				}
			}
		})
	}
}

func TestGraphMatRunsMoreIterations(t *testing.T) {
	// The paper's Fig. 4 observation: GraphMat's run-until-no-change
	// rule yields the most iterations. The ordering is a large-graph
	// property (at tiny scales the global L1 budget is the stricter
	// criterion), so this uses the largest quick-test scale.
	el := kronecker.Generate(kronecker.Params{Scale: 13, Seed: 42})
	insts := loadAll(t, el)
	iters := map[string]int{}
	for name, inst := range insts {
		res, err := inst.PageRank(engines.PROpts{}, nil)
		if errors.Is(err, engines.ErrUnsupported) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		iters[name] = res.Iterations
	}
	// Compare against the float64 L1-stopped engines, whose counts
	// are stable. GraphBIG's float32 L1 wanders near the 6e-8
	// threshold and can overshoot everyone at small scales, so it is
	// excluded from the strict ordering (the paper's full ordering is
	// a scale-22 observation; see EXPERIMENTS.md).
	for _, other := range []string{GAP, PowerGraph} {
		if iters[GraphMat] < iters[other] {
			t.Errorf("GraphMat iterations (%d) below %s (%d)", iters[GraphMat], other, iters[other])
		}
	}
}

func TestCDLPConformance(t *testing.T) {
	for _, tg := range testGraphs(t) {
		t.Run(tg.name, func(t *testing.T) {
			p := verify.Prepare(tg.el)
			ref := verify.CDLP(p, engines.DefaultCDLPIterations)
			insts := loadAll(t, tg.el)
			for name, inst := range insts {
				got, err := inst.CDLP(engines.DefaultCDLPIterations, nil)
				if errors.Is(err, engines.ErrUnsupported) {
					continue
				}
				if err != nil {
					t.Fatalf("%s CDLP: %v", name, err)
				}
				if err := verify.ValidateCDLP(got, ref); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		})
	}
}

func TestLCCConformance(t *testing.T) {
	for _, tg := range testGraphs(t) {
		t.Run(tg.name, func(t *testing.T) {
			p := verify.Prepare(tg.el)
			ref := verify.LCC(p)
			insts := loadAll(t, tg.el)
			for name, inst := range insts {
				got, err := inst.LCC(nil)
				if errors.Is(err, engines.ErrUnsupported) {
					continue
				}
				if err != nil {
					t.Fatalf("%s LCC: %v", name, err)
				}
				if err := verify.ValidateLCC(got, ref); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		})
	}
	// A directed graph, twice: GraphMat needs the in-adjacency for the
	// neighborhoods, and BuildStructure already built it. A repeated
	// call must allocate what PowerGraph's does on the same step — the
	// coefficients and the merged neighborhoods — not a transposed CSR
	// (4 B an edge and more) on top.
	t.Run("directed-twice", func(t *testing.T) {
		el := randomGraph(17, 4096, true)
		ref := verify.LCC(verify.Prepare(el))
		insts := loadAll(t, el)
		secondCall := func(name string) uint64 {
			if _, err := insts[name].LCC(nil); err != nil {
				t.Fatalf("%s LCC: %v", name, err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, err := insts[name].LCC(nil)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("%s second LCC: %v", name, err)
			}
			if err := verify.ValidateLCC(got, ref); err != nil {
				t.Errorf("%s second call: %v", name, err)
			}
			return after.TotalAlloc - before.TotalAlloc
		}
		gm, pg := secondCall(GraphMat), secondCall(PowerGraph)
		t.Logf("second LCC call allocates %d B in GraphMat, %d B in PowerGraph", gm, pg)
		if slack := uint64(len(el.Edges)); gm > pg+slack {
			t.Errorf("GraphMat's second LCC call allocates %d B against PowerGraph's %d B: it rebuilds adjacency on every call", gm, pg)
		}
	})
}

func TestWCCConformance(t *testing.T) {
	for _, tg := range testGraphs(t) {
		t.Run(tg.name, func(t *testing.T) {
			p := verify.Prepare(tg.el)
			ref := verify.WCC(p)
			insts := loadAll(t, tg.el)
			for name, inst := range insts {
				got, err := inst.WCC(nil)
				if errors.Is(err, engines.ErrUnsupported) {
					continue
				}
				if err != nil {
					t.Fatalf("%s WCC: %v", name, err)
				}
				if err := verify.ValidateWCC(got, ref); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		})
	}
}

// --- Randomized cross-engine conformance -----------------------------
//
// Beyond the fixed shapes above, every pair of engines must agree on
// seeded random and Kronecker graphs for all six kernels: BFS parent
// trees valid with equal depth arrays, SSSP distances within
// tolerance, PageRank ranks within an L1 budget set by the weaker
// engine's precision, and exact agreement for the deterministic
// CDLP/LCC/WCC semantics.

// randomGraph generates a seeded uniform random multigraph (self loops
// and duplicates included: homogenization must absorb them).
func randomGraph(seed uint64, n int, directed bool) *graph.EdgeList {
	r := xrand.New(seed)
	el := &graph.EdgeList{NumVertices: n, Directed: directed, Weighted: true}
	m := 4 * n
	for i := 0; i < m; i++ {
		el.Edges = append(el.Edges, graph.Edge{
			Src: graph.VID(r.Intn(n)),
			Dst: graph.VID(r.Intn(n)),
			W:   float32(r.Float64()*0.99) + 0.01,
		})
	}
	return el
}

// prTolerance is the pairwise PageRank L1 budget: float64 engines
// agree to 1e-6; any pair involving a float32 engine gets the
// precision-floor budget the package-level tolerances use.
func prTolerance(a, b string) float64 {
	f32 := map[string]bool{GraphBIG: true, GraphMat: true}
	if f32[a] || f32[b] {
		return 1e-2
	}
	return 1e-6
}

func conformanceGraphs() []testGraph {
	var gs []testGraph
	for seed := uint64(1); seed <= 3; seed++ {
		gs = append(gs,
			testGraph{fmt.Sprintf("rand-undirected-%d", seed), randomGraph(seed, 400, false)},
			testGraph{fmt.Sprintf("rand-directed-%d", seed), randomGraph(seed+100, 400, true)},
			testGraph{fmt.Sprintf("kron-%d", seed), kronecker.Generate(kronecker.Params{Scale: 9, Seed: seed})},
		)
	}
	return gs
}

func TestRandomizedCrossEngineConformance(t *testing.T) {
	for _, tg := range conformanceGraphs() {
		t.Run(tg.name, func(t *testing.T) {
			p := verify.Prepare(tg.el)
			insts := loadAll(t, tg.el)
			rs := roots(p, 2)
			if len(rs) == 0 {
				t.Fatal("no usable roots")
			}

			// BFS: validate each engine against the reference, then
			// require identical depth arrays across every engine pair
			// (levels are unique even when parent choices are not).
			for _, root := range rs {
				ref := verify.BFS(p, root)
				got := map[string]*engines.BFSResult{}
				for name, inst := range insts {
					res, err := inst.BFS(root, nil)
					if errors.Is(err, engines.ErrUnsupported) {
						continue
					}
					if err != nil {
						t.Fatalf("%s BFS: %v", name, err)
					}
					if err := verify.ValidateBFS(p, res, ref); err != nil {
						t.Errorf("%s root %d: %v", name, root, err)
					}
					got[name] = res
				}
				forEachPair(got, func(a, b string, ra, rb *engines.BFSResult) {
					for v := range ra.Depth {
						if ra.Depth[v] != rb.Depth[v] {
							t.Errorf("BFS root %d: %s and %s disagree on depth of %d (%d vs %d)",
								root, a, b, v, ra.Depth[v], rb.Depth[v])
							return
						}
					}
				})
			}

			// SSSP: pairwise distances within the validator tolerance.
			for _, root := range rs[:1] {
				ref := verify.SSSP(p, root)
				got := map[string]*engines.SSSPResult{}
				for name, inst := range insts {
					res, err := inst.SSSP(root, nil)
					if errors.Is(err, engines.ErrUnsupported) {
						continue
					}
					if err != nil {
						t.Fatalf("%s SSSP: %v", name, err)
					}
					if err := verify.ValidateSSSP(p, res, ref); err != nil {
						t.Errorf("%s root %d: %v", name, root, err)
					}
					got[name] = res
				}
				forEachPair(got, func(a, b string, ra, rb *engines.SSSPResult) {
					for v := range ra.Dist {
						da, db := ra.Dist[v], rb.Dist[v]
						if math.IsInf(da, 1) != math.IsInf(db, 1) {
							t.Errorf("SSSP root %d: %s and %s disagree on reachability of %d", root, a, b, v)
							return
						}
						if !math.IsInf(da, 1) && math.Abs(da-db) > 2*verify.SSSPTolerance*(1+math.Abs(da)) {
							t.Errorf("SSSP root %d: %s and %s disagree at %d (%v vs %v)", root, a, b, v, da, db)
							return
						}
					}
				})
			}

			// PageRank: pairwise L1 within the weaker precision.
			{
				got := map[string]*engines.PRResult{}
				for name, inst := range insts {
					res, err := inst.PageRank(engines.PROpts{}, nil)
					if errors.Is(err, engines.ErrUnsupported) {
						continue
					}
					if err != nil {
						t.Fatalf("%s PR: %v", name, err)
					}
					got[name] = res
				}
				forEachPair(got, func(a, b string, ra, rb *engines.PRResult) {
					l1 := 0.0
					for v := range ra.Rank {
						l1 += math.Abs(ra.Rank[v] - rb.Rank[v])
					}
					if tol := prTolerance(a, b); l1 > tol {
						t.Errorf("PR: %s vs %s L1 = %v exceeds %v", a, b, l1, tol)
					}
				})
			}

			// CDLP / WCC: exact pairwise agreement; LCC within epsilon.
			{
				got := map[string]*engines.CDLPResult{}
				for name, inst := range insts {
					res, err := inst.CDLP(engines.DefaultCDLPIterations, nil)
					if errors.Is(err, engines.ErrUnsupported) {
						continue
					}
					if err != nil {
						t.Fatalf("%s CDLP: %v", name, err)
					}
					got[name] = res
				}
				forEachPair(got, func(a, b string, ra, rb *engines.CDLPResult) {
					for v := range ra.Label {
						if ra.Label[v] != rb.Label[v] {
							t.Errorf("CDLP: %s and %s disagree at %d", a, b, v)
							return
						}
					}
				})
			}
			{
				got := map[string]*engines.LCCResult{}
				for name, inst := range insts {
					res, err := inst.LCC(nil)
					if errors.Is(err, engines.ErrUnsupported) {
						continue
					}
					if err != nil {
						t.Fatalf("%s LCC: %v", name, err)
					}
					got[name] = res
				}
				forEachPair(got, func(a, b string, ra, rb *engines.LCCResult) {
					for v := range ra.Coeff {
						if math.Abs(ra.Coeff[v]-rb.Coeff[v]) > 1e-9 {
							t.Errorf("LCC: %s and %s disagree at %d (%v vs %v)", a, b, v, ra.Coeff[v], rb.Coeff[v])
							return
						}
					}
				})
			}
			{
				got := map[string]*engines.WCCResult{}
				for name, inst := range insts {
					res, err := inst.WCC(nil)
					if errors.Is(err, engines.ErrUnsupported) {
						continue
					}
					if err != nil {
						t.Fatalf("%s WCC: %v", name, err)
					}
					got[name] = res
				}
				forEachPair(got, func(a, b string, ra, rb *engines.WCCResult) {
					for v := range ra.Component {
						if ra.Component[v] != rb.Component[v] {
							t.Errorf("WCC: %s and %s disagree at %d", a, b, v)
							return
						}
					}
				})
			}
		})
	}
}

// forEachPair invokes f once per unordered engine pair, in the
// registry's presentation order for reproducible failure messages.
func forEachPair[R any](got map[string]R, f func(a, b string, ra, rb R)) {
	for i, a := range Names {
		ra, ok := got[a]
		if !ok {
			continue
		}
		for _, b := range Names[i+1:] {
			rb, ok := got[b]
			if !ok {
				continue
			}
			f(a, b, ra, rb)
		}
	}
}

// loadAllWith is loadAll on spec's 8-thread machine with the engine
// knobs spec requests (scheduling overrides, worker counts, synchronous
// SSSP).
func loadAllWith(t *testing.T, el *graph.EdgeList, spec core.Spec) map[string]engines.Instance {
	t.Helper()
	spec.Threads = 8
	out := make(map[string]engines.Instance)
	for _, name := range Names {
		eng, err := New(name)
		if err != nil {
			t.Fatalf("new %s: %v", name, err)
		}
		opts, _ := spec.EngineOptions(eng.Decl)
		engines.Configure(eng, opts)
		m, _ := spec.NewMachine(nil, simmachine.Haswell72(), power.DefaultConstants(), nil)
		inst, err := eng.Load(el, m)
		if err != nil {
			t.Fatalf("%s load: %v", name, err)
		}
		inst.BuildStructure()
		out[name] = inst
	}
	return out
}

// conformAllKernels validates every engine's every supported kernel
// against the serial references on one graph.
func conformAllKernels(t *testing.T, el *graph.EdgeList, insts map[string]engines.Instance, nroots int, skipLCC bool) {
	t.Helper()
	p := verify.Prepare(el)
	rs := roots(p, nroots)
	if len(rs) == 0 {
		t.Fatal("no usable roots")
	}
	for _, root := range rs {
		ref := verify.BFS(p, root)
		for name, inst := range insts {
			got, err := inst.BFS(root, nil)
			if errors.Is(err, engines.ErrUnsupported) {
				continue
			}
			if err != nil {
				t.Fatalf("%s BFS: %v", name, err)
			}
			if err := verify.ValidateBFS(p, got, ref); err != nil {
				t.Errorf("%s BFS root %d: %v", name, root, err)
			}
		}
	}
	if el.Weighted {
		for _, root := range rs[:1] {
			ref := verify.SSSP(p, root)
			for name, inst := range insts {
				got, err := inst.SSSP(root, nil)
				if errors.Is(err, engines.ErrUnsupported) {
					continue
				}
				if err != nil {
					t.Fatalf("%s SSSP: %v", name, err)
				}
				if err := verify.ValidateSSSP(p, got, ref); err != nil {
					t.Errorf("%s SSSP root %d: %v", name, root, err)
				}
			}
		}
	}
	{
		refPR := verify.PageRank(p, engines.PROpts{})
		tolerances := map[string]float64{
			GAP: 1e-6, PowerGraph: 1e-6, GraphBIG: 5e-3, GraphMat: 5e-3,
		}
		for name, inst := range insts {
			got, err := inst.PageRank(engines.PROpts{}, nil)
			if errors.Is(err, engines.ErrUnsupported) {
				continue
			}
			if err != nil {
				t.Fatalf("%s PR: %v", name, err)
			}
			if err := verify.ValidatePageRank(got, refPR, tolerances[name]); err != nil {
				t.Errorf("%s PR: %v", name, err)
			}
		}
	}
	{
		refCDLP := verify.CDLP(p, engines.DefaultCDLPIterations)
		for name, inst := range insts {
			got, err := inst.CDLP(engines.DefaultCDLPIterations, nil)
			if errors.Is(err, engines.ErrUnsupported) {
				continue
			}
			if err != nil {
				t.Fatalf("%s CDLP: %v", name, err)
			}
			if err := verify.ValidateCDLP(got, refCDLP); err != nil {
				t.Errorf("%s CDLP: %v", name, err)
			}
		}
	}
	if !skipLCC {
		refLCC := verify.LCC(p)
		for name, inst := range insts {
			got, err := inst.LCC(nil)
			if errors.Is(err, engines.ErrUnsupported) {
				continue
			}
			if err != nil {
				t.Fatalf("%s LCC: %v", name, err)
			}
			if err := verify.ValidateLCC(got, refLCC); err != nil {
				t.Errorf("%s LCC: %v", name, err)
			}
		}
	}
	{
		refWCC := verify.WCC(p)
		for name, inst := range insts {
			got, err := inst.WCC(nil)
			if errors.Is(err, engines.ErrUnsupported) {
				continue
			}
			if err != nil {
				t.Fatalf("%s WCC: %v", name, err)
			}
			if err := verify.ValidateWCC(got, refWCC); err != nil {
				t.Errorf("%s WCC: %v", name, err)
			}
		}
	}
}

// TestStealPolicyConformance runs every engine's every kernel under
// the work-stealing scheduler override (and the synchronous SSSP
// modes) and validates against the serial references: the new policy
// must not change what any kernel computes.
func TestStealPolicyConformance(t *testing.T) {
	el := kronecker.Generate(kronecker.Params{Scale: 10, Seed: 42})
	insts := loadAllWith(t, el, core.Spec{Sched: core.SchedSteal, Workers: 4, SyncSSSP: true})
	conformAllKernels(t, el, insts, 2, false)
}

// TestBigConformance is the ROADMAP's scaled-up conformance wall: the
// full kernel sweep on kron-18 (≈260k vertices, ≈4M directed edges),
// too slow for every `go test` run, gated behind EPG_BIG_CONFORMANCE=1
// (`make big-conformance`). LCC is skipped: the serial reference is
// quadratic in hub degree, which is intractable at Kronecker scale 18.
func TestBigConformance(t *testing.T) {
	if os.Getenv("EPG_BIG_CONFORMANCE") == "" {
		t.Skip("set EPG_BIG_CONFORMANCE=1 to run the kron-18 conformance sweep")
	}
	el := kronecker.Generate(kronecker.Params{Scale: 18, Seed: 1})
	for _, sched := range []string{core.SchedDynamic, core.SchedSteal} {
		t.Run(sched, func(t *testing.T) {
			insts := loadAllWith(t, el, core.Spec{Sched: sched, Workers: 4, SyncSSSP: true})
			conformAllKernels(t, el, insts, 1, true)
		})
	}
}

// Model-time sanity: on the same graph at 32 virtual threads, GAP's
// BFS must beat GraphBIG's and GraphMat's by a widening margin (the
// paper's Table III shows ~85x at scale 22; the gap grows with scale,
// so the bound here is scaled to the small test graph).
func TestBFSRelativeSpeedShape(t *testing.T) {
	el := kronecker.Generate(kronecker.Params{Scale: 14, Seed: 11})
	p := verify.Prepare(el)
	root := roots(p, 1)[0]
	times := map[string]float64{}
	for _, name := range []string{GAP, Graph500, GraphBIG, GraphMat} {
		eng, _ := New(name)
		m := simmachine.New(simmachine.Haswell72(), 32)
		inst, err := eng.Load(el, m)
		if err != nil {
			t.Fatal(err)
		}
		inst.BuildStructure()
		start := m.Elapsed()
		if _, err := inst.BFS(root, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		times[name] = m.Elapsed() - start
	}
	if times[GAP] <= 0 {
		t.Fatal("no modeled time accrued")
	}
	for _, slow := range []string{GraphBIG, GraphMat} {
		if ratio := times[slow] / times[GAP]; ratio < 3 {
			t.Errorf("%s/GAP BFS ratio = %.1f, want >= 3 at scale 14", slow, ratio)
		}
	}
	// Graph500 sits between GAP and the frameworks.
	if ratio := times[Graph500] / times[GAP]; ratio > 10 || ratio < 0.5 {
		t.Errorf("Graph500/GAP ratio = %.2f, want in [0.5, 10]", ratio)
	}
	fmt.Printf("BFS modeled times at 32 threads (scale 14): GAP=%.4gs G500=%.4gs GraphBIG=%.4gs GraphMat=%.4gs\n",
		times[GAP], times[Graph500], times[GraphBIG], times[GraphMat])
}
