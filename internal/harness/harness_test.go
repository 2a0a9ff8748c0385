package harness

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/all"
	"github.com/hpcl-repro/epg/internal/logfmt"
)

func testRunner() *Runner { return NewRunner(all.Registry()) }

func testSpec(alg engines.Algorithm, roots int) core.Spec {
	return core.Spec{
		Dataset:   "kron-9",
		Algorithm: alg,
		Threads:   8,
		Roots:     roots,
		Seed:      42,
	}
}

func TestResolveDataset(t *testing.T) {
	opt := DatasetOptions{Seed: 1, RealWorldDivisor: 512}
	kron, err := ResolveDataset("kron-8", opt)
	if err != nil {
		t.Fatal(err)
	}
	if kron.NumVertices != 256 {
		t.Errorf("kron-8 vertices = %d", kron.NumVertices)
	}
	if _, err := ResolveDataset("dota-league", opt); err != nil {
		t.Errorf("dota-league: %v", err)
	}
	if _, err := ResolveDataset("cit-Patents", opt); err != nil {
		t.Errorf("cit-Patents: %v", err)
	}
	for _, bad := range []string{"kron-x", "kron-0", "livejournal"} {
		if _, err := ResolveDataset(bad, opt); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestRunBFSProducesPerRootResults(t *testing.T) {
	r := testRunner()
	spec := testSpec(engines.BFS, 4)
	el, err := ResolveDataset(spec.Dataset, DatasetOptions{Seed: spec.Seed})
	if err != nil {
		t.Fatal(err)
	}
	results, err := r.Run(spec, el)
	if err != nil {
		t.Fatal(err)
	}
	// BFS is supported by 4 of 5 engines (not PowerGraph).
	wantEngines := map[string]int{"Graph500": 0, "GAP": 0, "GraphBIG": 0, "GraphMat": 0}
	for _, res := range results {
		if _, ok := wantEngines[res.Engine]; !ok {
			t.Errorf("unexpected engine %q in BFS results", res.Engine)
		}
		wantEngines[res.Engine]++
		if res.AlgorithmSec <= 0 {
			t.Errorf("%s trial %d: no algorithm time", res.Engine, res.Trial)
		}
		if res.WallSec <= 0 {
			t.Errorf("%s trial %d: no wall time", res.Engine, res.Trial)
		}
		if res.EdgesExamined <= 0 {
			t.Errorf("%s trial %d: no edges examined", res.Engine, res.Trial)
		}
	}
	for name, n := range wantEngines {
		if n != 4 {
			t.Errorf("%s produced %d results, want 4", name, n)
		}
	}
}

func TestConstructionPhaseSemantics(t *testing.T) {
	r := testRunner()
	spec := testSpec(engines.BFS, 2)
	el, _ := ResolveDataset(spec.Dataset, DatasetOptions{Seed: spec.Seed})
	results, err := r.Run(spec, el)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		switch res.Engine {
		case "GAP", "Graph500", "GraphMat":
			if !res.HasConstruction || res.ConstructionSec <= 0 {
				t.Errorf("%s should report separate construction (got %v, %v)",
					res.Engine, res.HasConstruction, res.ConstructionSec)
			}
			if res.FileReadSec <= 0 {
				t.Errorf("%s missing modeled file read", res.Engine)
			}
		case "GraphBIG":
			if res.HasConstruction {
				t.Errorf("GraphBIG should not report separate construction")
			}
			if res.FileReadSec <= 0 {
				t.Errorf("GraphBIG combined read+build missing")
			}
		}
	}
}

func TestRunSSSPSkipsGraph500(t *testing.T) {
	r := testRunner()
	spec := testSpec(engines.SSSP, 2)
	el, _ := ResolveDataset(spec.Dataset, DatasetOptions{Seed: spec.Seed})
	results, err := r.Run(spec, el)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Engine == "Graph500" {
			t.Error("Graph500 appeared in SSSP results")
		}
	}
}

func TestExplicitUnsupportedEngineErrors(t *testing.T) {
	r := testRunner()
	spec := testSpec(engines.BFS, 1)
	spec.Engines = []string{"PowerGraph"}
	el, _ := ResolveDataset(spec.Dataset, DatasetOptions{Seed: spec.Seed})
	if _, err := r.Run(spec, el); err == nil {
		t.Error("explicitly requesting PowerGraph BFS should error")
	}
}

func TestPowerMetering(t *testing.T) {
	r := testRunner()
	spec := testSpec(engines.BFS, 2)
	spec.Engines = []string{"GAP"}
	spec.MeasurePower = true
	el, _ := ResolveDataset(spec.Dataset, DatasetOptions{Seed: spec.Seed})
	results, err := r.Run(spec, el)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.CPUJoules <= 0 || res.RAMJoules <= 0 {
			t.Errorf("no energy recorded: %+v", res)
		}
		if res.AvgCPUWatts < r.Power.CPUIdleWatts {
			t.Errorf("cpu power %v below idle", res.AvgCPUWatts)
		}
	}
}

func TestPageRankIterationsRecorded(t *testing.T) {
	r := testRunner()
	spec := testSpec(engines.PageRank, 1)
	spec.Engines = []string{"GAP", "GraphMat"}
	el, _ := ResolveDataset(spec.Dataset, DatasetOptions{Seed: spec.Seed})
	results, err := r.Run(spec, el)
	if err != nil {
		t.Fatal(err)
	}
	iters := map[string]int{}
	for _, res := range results {
		if res.Iterations <= 0 {
			t.Errorf("%s: no iterations", res.Engine)
		}
		iters[res.Engine] = res.Iterations
	}
	if iters["GraphMat"] < iters["GAP"] {
		t.Errorf("GraphMat iterations (%d) below GAP (%d)", iters["GraphMat"], iters["GAP"])
	}
}

func TestSweepProducesAllThreadCounts(t *testing.T) {
	r := testRunner()
	spec := testSpec(engines.BFS, 0)
	spec.Engines = []string{"GAP", "Graph500"}
	el, _ := ResolveDataset("kron-10", DatasetOptions{Seed: 1})
	spec.Dataset = "kron-10"
	points, err := r.Sweep(spec, el, []int{1, 2, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]map[int]bool{}
	for _, p := range points {
		if len(p.Seconds) != 2 {
			t.Errorf("%s t=%d has %d trials, want 2", p.Engine, p.Threads, len(p.Seconds))
		}
		if seen[p.Engine] == nil {
			seen[p.Engine] = map[int]bool{}
		}
		seen[p.Engine][p.Threads] = true
	}
	for _, eng := range []string{"GAP", "Graph500"} {
		for _, tc := range []int{1, 2, 4} {
			if !seen[eng][tc] {
				t.Errorf("missing sweep point %s/t%d", eng, tc)
			}
		}
	}
}

func TestResultsSurviveLogRoundTrip(t *testing.T) {
	// Phase 3 (run) -> logs -> phase 4 (parse) must preserve the
	// timings, as in the original framework.
	r := testRunner()
	spec := testSpec(engines.BFS, 1)
	spec.Engines = []string{"GAP"}
	el, _ := ResolveDataset(spec.Dataset, DatasetOptions{Seed: spec.Seed})
	results, err := r.Run(spec, el)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := logfmt.Emit(&buf, results[0]); err != nil {
		t.Fatal(err)
	}
	parsed, err := logfmt.Parse(strings.NewReader(buf.String()), core.Result{
		Engine: "GAP", Dataset: spec.Dataset, Algorithm: spec.Algorithm,
		Threads: spec.Threads, Trial: 0, Root: results[0].Root,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := parsed.AlgorithmSec - results[0].AlgorithmSec; d > 1e-5 || d < -1e-5 {
		t.Errorf("parsed time %v, ran %v", parsed.AlgorithmSec, results[0].AlgorithmSec)
	}
}

func TestInvalidSpecRejected(t *testing.T) {
	r := testRunner()
	el, _ := ResolveDataset("kron-8", DatasetOptions{Seed: 1})
	if _, err := r.Run(core.Spec{}, el); err == nil {
		t.Error("empty spec accepted")
	}
}

// Concurrent Runs on one Runner write their dropped-knob warnings to its
// Warnings one at a time. The writer holds every Write for 20 ms, so a
// Write the Runner does not serialize lands inside another every time.
func TestConcurrentWarningsSerialized(t *testing.T) {
	el, err := ResolveDataset("kron-8", DatasetOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(engines.PageRank, 1)
	spec.Dataset = "kron-8"
	spec.Engines = []string{all.GraphMat}
	spec.Compress = true
	w := &overlapWriter{}
	r := testRunner()
	r.Warnings = w
	if _, err := r.Run(spec, el); err != nil { // homogenize before the race
		t.Fatal(err)
	}
	want := w.take()
	if len(want) != 1 {
		t.Fatalf("one Run wrote %q, want one line", want)
	}
	w.hold = 20 * time.Millisecond
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.Run(spec, el); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := w.overlaps.Load(); n > 0 {
		t.Fatalf("%d of 4 Writes to Warnings overlapped another", n)
	}
	if got := w.take(); !slices.Equal(got, slices.Repeat(want, 4)) {
		t.Fatalf("four Runs wrote %q", got)
	}
}
