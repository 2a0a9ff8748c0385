// Reuse walls: an engine instance keeps its kernels' scratch between
// calls, and the kernels share it. What a warm call hands out must be
// bit-equal to what an instance built for that one call hands out, and
// a warm call must allocate its result and little else.
package all

import (
	"fmt"
	"slices"
	"testing"

	"github.com/hpcl-repro/epg/internal/alloctest"
	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/kronecker"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// reuseProgram interleaves the kernels on purpose: scratch is shared
// between them, so each one runs after every other has dirtied it, and
// the traversals come back from another root.
var reuseProgram = []struct {
	alg  engines.Algorithm
	root int // index into the wall's roots
}{
	{engines.SSSP, 0}, {engines.PageRank, 0}, {engines.BFS, 0}, {engines.WCC, 0},
	{engines.CDLP, 0}, {engines.LCC, 0}, {engines.SSSP, 1}, {engines.BFS, 1},
	{engines.WCC, 0}, {engines.PageRank, 0}, {engines.CDLP, 0}, {engines.SSSP, 0},
}

// loadShared loads g into a fresh instance of the named engine on its
// own 8-thread machine.
func loadShared(t *testing.T, name string, g *graph.Simple, workers int, opts engines.Options) (engines.Instance, *simmachine.Machine) {
	t.Helper()
	eng, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	engines.Configure(eng, opts)
	m := newMachine()
	m.SetWorkers(workers)
	inst := eng.LoadSimple(g, m)
	inst.BuildStructure()
	return inst, m
}

// workerCounts exercises serial, oversubscribed, and (on multicore
// hosts) genuinely parallel execution. Counts above GOMAXPROCS are
// legal: goroutines are multiplexed.
var workerCounts = []int{1, 2, 4}

// The reuse-equivalence wall for all five engines, modelled on
// gap.TestReusedWorkspaceBitEqualFreshInstance: every (engine, kernel)
// pair of the golden wall, the kernels interleaved on ONE long-lived
// instance, across real worker counts, both SyncSSSP modes, raw and
// compressed adjacency, an undirected and a directed load — values,
// work counters and every Region since Mark bit-equal to an instance
// built fresh for each call. Then the same instance rebound from graph
// to graph: bit-equal to one loaded fresh for each bind.
func TestReusedInstanceBitEqualFreshInstance(t *testing.T) {
	und := kronecker.Generate(kronecker.Params{Scale: 9, Seed: 21})
	dir := *und
	dir.Directed = true
	for _, cfg := range goldenConfigs {
		if cfg.adaptive {
			continue // a grain policy, not a layout: the same scratch
		}
		el := und
		if cfg.directed {
			el = &dir
		}
		g, err := graph.Homogenize(el)
		if err != nil {
			t.Fatal(err)
		}
		rs := core.SelectRoots(g.Out, 2, 0x7007)
		for _, name := range cfg.engines {
			eng, _ := New(name)
			hasSync := eng.Knobs.SyncSSSP
			for _, workers := range workerCounts {
				for _, sync := range []bool{true, false} {
					if !sync && !hasSync {
						continue // one SSSP mode only
					}
					opts := engines.Options{SyncSSSP: sync, Compress: cfg.compress}
					reused, m := loadShared(t, name, g, workers, opts)
					for step, p := range reuseProgram {
						if !eng.Has(p.alg) {
							continue
						}
						label := fmt.Sprintf("%s %s workers=%d sync=%v step %d %s", cfg.name, name, workers, sync, step, p.alg)
						fresh, fm := loadShared(t, name, g, workers, opts)
						sameStep(t, label, name, p.alg, rs[p.root], workers, sync, reused, m, fresh, fm)
						if t.Failed() {
							return
						}
					}
				}
			}
		}
	}

	// Across graphs: one instance per engine, bound in turn to a small
	// directed and a larger undirected graph (its scratch must grow), with
	// compress off and on, on machines of 8, 64 and 8 modeled threads
	// (PowerGraph re-cuts), must charge and compute what a new instance
	// loaded for each bind does — the load and build phases, then every
	// step.
	dsmall := kronecker.Generate(kronecker.Params{Scale: 8, Seed: 22})
	dsmall.Directed = true
	graphs := map[bool]*graph.Simple{}
	for directed, el := range map[bool]*graph.EdgeList{false: und, true: dsmall} {
		g, err := graph.Homogenize(el)
		if err != nil {
			t.Fatal(err)
		}
		graphs[directed] = g
	}
	binds := []struct {
		directed, compress bool
		threads            int
	}{{true, false, 8}, {false, true, 64}, {true, true, 8}, {false, false, 8}}
	for _, name := range Names {
		for _, workers := range workerCounts {
			for _, sync := range []bool{true, false} {
				eng, _ := New(name)
				if !sync && !eng.Knobs.SyncSSSP {
					continue
				}
				var inst engines.Instance
				for i, b := range binds {
					g := graphs[b.directed]
					opts := engines.Configure(eng, engines.Options{SyncSSSP: sync, Compress: b.compress})
					m, fm := simmachine.New(simmachine.Haswell72(), b.threads), simmachine.New(simmachine.Haswell72(), b.threads)
					m.SetWorkers(workers)
					fm.SetWorkers(workers)
					if inst == nil {
						inst = eng.LoadSimple(g, m)
					} else {
						inst.Bind(g, m, opts)
					}
					fresh := eng.LoadSimple(g, fm)
					inst.BuildStructure()
					fresh.BuildStructure()
					label := fmt.Sprintf("%s workers=%d sync=%v bind %d (directed=%v compress=%v threads=%d)",
						name, workers, sync, i, b.directed, b.compress, b.threads)
					if !slices.Equal(m.Trace(), fm.Trace()) {
						t.Fatalf("%s: the rebound instance's load and build charge differently from a new one's", label)
					}
					rs := core.SelectRoots(g.Out, 2, 0x7007)
					for step, p := range reuseProgram {
						if eng.Has(p.alg) {
							sameStep(t, fmt.Sprintf("%s step %d %s", label, step, p.alg), name, p.alg, rs[p.root], workers, sync, inst, m, fresh, fm)
						}
					}
					if t.Failed() {
						return
					}
					inst.Bind(nil, nil, engines.Options{}) // idle between binds, as a Runner keeps it
				}
			}
		}
	}
}

// sameStep runs alg from root on a reused and on a fresh instance and
// requires the same outputs, work counters and regions since each
// machine's mark — for a chaotic kernel on more than one worker, the
// same values.
func sameStep(t *testing.T, label, name string, alg engines.Algorithm, root graph.VID, workers int, sync bool,
	reused engines.Instance, m *simmachine.Machine, fresh engines.Instance, fm *simmachine.Machine) {
	t.Helper()
	mark, _ := m.Mark()
	got, err := engines.RunAlgorithm(reused, alg, root)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	fmark, _ := fm.Mark()
	want, err := engines.RunAlgorithm(fresh, alg, root)
	if err != nil {
		t.Fatalf("%s (fresh): %v", label, err)
	}
	if d, _ := Registry().Decl(name); workers > 1 && chaotic(d, alg, sync) {
		sameFloat64sBitwise(t, label+" dist", want.(*engines.SSSPResult).Dist, got.(*engines.SSSPResult).Dist)
		return
	}
	sameOutputs(t, label, want, got)
	if !slices.Equal(m.Trace()[mark:], fm.Trace()[fmark:]) {
		t.Errorf("%s: the reused instance's modeled regions differ from a fresh instance's", label)
	}
}

// resultBytes is the size of the arrays a kernel hands out over n
// vertices.
func resultBytes(alg engines.Algorithm, n int) uint64 {
	per := map[engines.Algorithm]int{
		engines.BFS: 16, engines.SSSP: 16, engines.PageRank: 8,
		engines.CDLP: 4, engines.LCC: 8, engines.WCC: 4,
	}
	return uint64(per[alg] * n)
}

// The allocation contract, kernel side: every (engine, kernel) pair,
// warm, allocates its result arrays plus less than 64 KB — at most one
// closure per region, where an engine's own body captures its per-call
// values (the shared steps and GAP's BFS and sync SSSP bind theirs
// once and allocate nothing past the result; the pool's hand-off is a
// reusable record), and nothing per vertex, per replica or per chunk.
// At kron-12 the smallest n-sized array is 16 KB and PowerGraph's
// replica arrays several times that, so one made per call, or per
// superstep, breaks the bound.
func TestWarmKernelsAllocateOnlyResults(t *testing.T) {
	const bound = 64 << 10
	el := kronecker.Generate(kronecker.Params{Scale: 12, Seed: 5})
	g, err := graph.Homogenize(el)
	if err != nil {
		t.Fatal(err)
	}
	rs := core.SelectRoots(g.Out, 8, 0x7007)
	for _, compress := range []bool{false, true} {
		for _, name := range Names {
			eng, _ := New(name)
			if compress && !eng.Knobs.Compress {
				continue
			}
			for _, sync := range []bool{true, false} {
				if !sync && !eng.Knobs.SyncSSSP {
					continue
				}
				inst, m := loadShared(t, name, g, 2, engines.Options{SyncSSSP: sync, Compress: compress})
				m.SetTracing(false) // a trace grows by design
				for _, alg := range engines.AllAlgorithms {
					if !eng.Has(alg) || (!sync && alg != engines.SSSP) {
						continue
					}
					runs, i := 2, 0
					if alg == engines.BFS || alg == engines.SSSP {
						runs = len(rs) // what a traversal allocates varies with its root
					}
					per := alloctest.BytesPerRun(runs, func() {
						if _, err := engines.RunAlgorithm(inst, alg, rs[i%len(rs)]); err != nil {
							t.Fatal(err)
						}
						i++
					})
					results := resultBytes(alg, g.NumVertices)
					t.Logf("warm %s %s compress=%v sync=%v: %d B/call, %d B of it the result arrays", name, alg, compress, sync, per, results)
					if per >= results+bound {
						t.Errorf("warm %s %s compress=%v sync=%v allocates %d B per call beyond its %d B result arrays; bound %d",
							name, alg, compress, sync, per-results, results, bound)
					}
				}
			}
		}
	}
}
