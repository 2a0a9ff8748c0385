package harness

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"github.com/hpcl-repro/epg/internal/alloctest"
	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
)

// leastAlloc is the fewest bytes f allocates over three calls, each
// after a call of prep, whose allocation is not counted.
func leastAlloc(prep, f func()) uint64 {
	best := uint64(math.MaxUint64)
	var ms runtime.MemStats
	for i := 0; i < 3; i++ {
		prep()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		f()
		runtime.ReadMemStats(&ms)
		best = min(best, ms.TotalAlloc-before)
	}
	return best
}

// A Run homogenizes its edge list once, for root selection and every
// engine together, and a Sweep once for all its thread counts; a Runner
// that ran the edge list before homogenizes nothing and, through the
// graph graph.HomogenizeShared kept, rebuilds no engine's structure.
// That memo is the program's, so every cold call runs on a copy of the
// list made for it, which no call before can have homogenized. The
// budgets are in units of one graph.Homogenize of the same edge list
// (276 KB at kron-10). Cold, on a fresh Runner, the calls allocate BFS on four
// engines 1.94, WCC on the other four 2.62 and a three-point BFS sweep
// 1.96, and the budgets sit half a build or more above. Warm, on a Runner that
// made the same call before, they allocate 0.00, 0.01 and 0.02 — the
// result rows; the Runner keeps the instances with their scratch and the
// results they write into, and the machines with their traces and region
// scratch, and the graph its roots — and the budgets of 0.25 break on one
// more homogenize, on results made fresh per trial (0.24, 0.06 and 0.74
// more) and on everything graph.Derive keeps built again per Run (0.31,
// 1.38 and 0.95 more: the roots, GraphBIG's table, GraphMat's row
// indexes, PowerGraph's cut).
// Between them the two kernels load all five engines. A two-batch GAP
// WCC stream allocates 1.88 cold and 0.63 warm: per batch the overlay
// GAP's Mutate applies, the recompute's fresh instance with its scratch,
// and fresh results; its budgets of 2.1 and 0.85 break on a second
// apply of each batch beside the engine's (2.33 and 1.08), and more so
// on the recompute homogenizing a reconstructed edge list again (4.68
// and 3.44).
func TestRunHomogenizesOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	el, err := ResolveDataset("kron-10", DatasetOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	build := float64(leastAlloc(func() {}, func() {
		if _, err := graph.Homogenize(el); err != nil {
			t.Fatal(err)
		}
	}))
	spec := func(alg engines.Algorithm) core.Spec {
		return core.Spec{Dataset: "kron-10", Algorithm: alg, Threads: 8, Roots: 1, Seed: 1}
	}
	for _, tc := range []struct {
		name       string
		cold, warm float64 // budgets in homogenized builds
		call       func(r *Runner, el *graph.EdgeList) error
	}{
		{"Run BFS", 2.5, 0.25, func(r *Runner, el *graph.EdgeList) error { _, err := r.Run(spec(engines.BFS), el); return err }},
		{"Run WCC", 3.25, 0.25, func(r *Runner, el *graph.EdgeList) error { _, err := r.Run(spec(engines.WCC), el); return err }},
		{"Sweep BFS x3", 3.5, 0.25, func(r *Runner, el *graph.EdgeList) error {
			_, err := r.Sweep(spec(engines.BFS), el, []int{1, 2, 4}, 1)
			return err
		}},
		{"Run WCC stream", 2.1, 0.85, func(r *Runner, el *graph.EdgeList) error {
			s := spec(engines.WCC)
			s.Engines = []string{"GAP"}
			s.Mutations = &core.MutationSchedule{Batches: 2, BatchSize: 64, DeleteFrac: 0.25}
			_, err := r.Run(s, el)
			return err
		}},
	} {
		warm := testRunner()
		fresh := func() *graph.EdgeList {
			cp := *el
			cp.Edges = slices.Clone(el.Edges)
			return &cp
		}
		for _, side := range []struct {
			name   string
			budget float64
			runner func() *Runner
			list   func() *graph.EdgeList
		}{
			{"cold", tc.cold, testRunner, fresh},
			{"warm", tc.warm, func() *Runner { return warm }, func() *graph.EdgeList { return el }},
		} {
			var list *graph.EdgeList
			got := float64(leastAlloc(func() { list = side.list() }, func() {
				if err := tc.call(side.runner(), list); err != nil {
					t.Fatal(err)
				}
			})) / build
			t.Logf("%s %s: %.2f builds, budget %.2f", side.name, tc.name, got, side.budget)
			if got > side.budget {
				t.Errorf("%s %s allocates %.2f homogenized builds (%.0f B each); budget %.2f", side.name, tc.name, got, build, side.budget)
			}
		}
	}
}

// A warm Run allocates its result rows, and nothing its kernels work in,
// write into or model on: the Runner's instance of the engine comes back
// bound to the run's graph with the scratch of the Runs before it and
// the results its trials wrote into, and its machine comes back renewed
// with the trace and region scratch they grew. GraphBIG's synchronous
// SSSP is the case in point: a new instance's relaxation passes grow its
// candidate slab, stamps and frontiers from nothing, ~550 KB a Run at
// kron-10, a new machine its trace and region scratch, ~12 KB, and a
// fresh result per trial 16 B per vertex. slack covers the rest, ~1 KB
// measured and independent of the graph's size: the result rows and the
// closures GraphBIG's own steps build per call (the roots are the
// graph's own, and the regions' hand-off to the pool allocates nothing).
func TestWarmRunAllocationBound(t *testing.T) {
	const roots, slack = 2, 4 << 10
	el, err := ResolveDataset("kron-10", DatasetOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec := core.Spec{Dataset: "kron-10", Algorithm: engines.SSSP, Engines: []string{"GraphBIG"},
		Threads: 32, Roots: roots, Seed: 1, SyncSSSP: true}
	r := testRunner()
	got := alloctest.BytesPerRun(4, func() {
		if _, err := r.Run(spec, el); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm GraphBIG sync-SSSP Run: %d B", got)
	if got > slack {
		t.Errorf("a warm Run allocates %d B; slack %d", got, slack)
	}
}

// A warm Run derives nothing again: the PowerGraph cut of each shard
// count, the roots and the 2D owner table are the graph's own
// (graph.Derive), and a graph keeps two cuts, so a Runner alternating
// two thread counts cuts each once. Once warm, PowerGraph SSSP Runs at
// 32 and then 72 threads on a four-node vertex-cut cluster write their
// trials into the Runner's results and allocate slack: ~1 KB measured
// for the pair, the result rows. At kron-10 the pair grows by ~15 KB
// when each Run selects its roots again, by ~20 KB when each partitions
// the cluster again, by ~580 KB when each re-cuts and by 64 KB when
// every trial gets a fresh result, so the slack breaks on any.
func TestWarmRunDerivesOnce(t *testing.T) {
	const roots, slack = 2, 8 << 10
	el, err := ResolveDataset("kron-10", DatasetOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec := core.Spec{Dataset: "kron-10", Algorithm: engines.SSSP, Engines: []string{"PowerGraph"},
		Roots: roots, Seed: 1, Nodes: 4, Partition: core.Partition2D}
	r := testRunner()
	got := alloctest.BytesPerRun(4, func() {
		for _, threads := range []int{32, 72} {
			spec.Threads = threads
			if _, err := r.Run(spec, el); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("warm PowerGraph SSSP Runs at 32 and 72 threads: %d B", got)
	if got > slack {
		t.Errorf("two warm Runs allocate %d B; slack %d", got, slack)
	}
}
