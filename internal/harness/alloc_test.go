package harness

import (
	"math"
	"runtime"
	"testing"

	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
)

// leastAlloc is the fewest bytes f allocates over three calls.
func leastAlloc(f func()) uint64 {
	best := uint64(math.MaxUint64)
	var ms runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		f()
		runtime.ReadMemStats(&ms)
		best = min(best, ms.TotalAlloc-before)
	}
	return best
}

// A Run homogenizes its edge list once, for root selection and every
// engine together, and a Sweep once for all its thread counts. The
// budgets are in units of one graph.Homogenize of the same edge list
// (276 KB at kron-10) and sit half a build above what the calls
// allocate now — BFS on four engines 1.94, WCC on the other four 2.71,
// a three-point BFS sweep 3.75 — so one more build anywhere, in Run or
// inside an engine's LoadSimple, breaks them. Between them the two
// kernels load all five engines.
func TestRunHomogenizesOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	el, err := ResolveDataset("kron-10", DatasetOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	build := float64(leastAlloc(func() {
		if _, err := graph.Homogenize(el); err != nil {
			t.Fatal(err)
		}
	}))
	r := testRunner()
	spec := func(alg engines.Algorithm) core.Spec {
		return core.Spec{Dataset: "kron-10", Algorithm: alg, Threads: 8, Roots: 1, Seed: 1}
	}
	for _, tc := range []struct {
		name   string
		budget float64 // homogenized builds
		call   func() error
	}{
		{"Run BFS", 2.5, func() error { _, err := r.Run(spec(engines.BFS), el); return err }},
		{"Run WCC", 3.25, func() error { _, err := r.Run(spec(engines.WCC), el); return err }},
		{"Sweep BFS x3", 4.3, func() error { _, err := r.Sweep(spec(engines.BFS), el, []int{1, 2, 4}, 1); return err }},
	} {
		got := float64(leastAlloc(func() {
			if err := tc.call(); err != nil {
				t.Fatal(err)
			}
		})) / build
		t.Logf("%s: %.2f builds, budget %.2f", tc.name, got, tc.budget)
		if got > tc.budget {
			t.Errorf("%s allocates %.2f homogenized builds (%.0f B each); budget %.2f", tc.name, got, build, tc.budget)
		}
	}
}
