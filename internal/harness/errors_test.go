package harness

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// failing declares an engine whose kernels always fail, standing in for
// a real engine hitting an error mid-run (an exhausted budget, a
// cancelled deadline) so the harness's wrapping of engine errors is
// testable without a graph bad enough to break a real engine.
var failing = engines.Decl{
	Name:    "Failing",
	Kernels: engines.AllAlgorithms,
	New:     func() engines.Instance { return failingInstance{} },
}

type failingInstance struct{ engines.Unsupported }

func (failingInstance) Bind(*graph.Simple, *simmachine.Machine, engines.Options) {}
func (failingInstance) BuildStructure()                                          {}
func (failingInstance) BFS(graph.VID, *engines.BFSResult) (*engines.BFSResult, error) {
	return nil, fmt.Errorf("failing: kernel exploded")
}

// TestRunErrorPaths drives Runner.Run down each of its error returns
// and asserts the failure surfaces as a wrapped, descriptive error —
// not a zero-result success and not a panic.
func TestRunErrorPaths(t *testing.T) {
	goodEL, err := ResolveDataset("kron-9", DatasetOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// No vertex exceeds degree 1 after homogenization: a single
	// undirected edge. SelectRoots requires degree > 1, so root
	// selection must fail loudly rather than running zero trials.
	rootlessEL := &graph.EdgeList{
		NumVertices: 2,
		Edges:       []graph.Edge{{Src: 0, Dst: 1}},
	}

	cases := []struct {
		name    string
		runner  *Runner
		spec    core.Spec
		el      *graph.EdgeList
		wantSub string
	}{
		{
			name:    "invalid freq state",
			runner:  testRunner(),
			spec:    func() core.Spec { s := testSpec(engines.BFS, 1); s.FreqState = "warp9"; return s }(),
			el:      goodEL,
			wantSub: `unknown freq "warp9"`,
		},
		{
			name:   "explicit engine lacks algorithm",
			runner: testRunner(),
			spec: func() core.Spec {
				s := testSpec(engines.BFS, 1)
				s.Engines = []string{"PowerGraph"} // famously lacks BFS
				return s
			}(),
			el:      goodEL,
			wantSub: "does not implement BFS",
		},
		{
			name:    "unknown engine name",
			runner:  testRunner(),
			spec:    func() core.Spec { s := testSpec(engines.BFS, 1); s.Engines = []string{"Pregel"}; return s }(),
			el:      goodEL,
			wantSub: "unknown engine",
		},
		{
			name:    "graph with no eligible roots",
			runner:  testRunner(),
			spec:    testSpec(engines.BFS, 1),
			el:      rootlessEL,
			wantSub: "no roots with degree > 1",
		},
		{
			name:    "engine failure is wrapped",
			runner:  NewRunner(engines.Registry{&failing}),
			spec:    testSpec(engines.BFS, 1),
			el:      goodEL,
			wantSub: "harness: Failing: failing: kernel exploded",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			results, err := tc.runner.Run(tc.spec, tc.el)
			if err == nil {
				t.Fatalf("Run succeeded with %d results, want error containing %q",
					len(results), tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

// TestKnobDropWarnings asserts the harness announces — rather than
// silently ignores — spec knobs an engine does not declare, and stays
// quiet for engines that honor them.
func TestKnobDropWarnings(t *testing.T) {
	el, err := ResolveDataset("kron-9", DatasetOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}

	run := func(engine string, compress, syncSSSP bool) string {
		t.Helper()
		r := testRunner()
		var warns bytes.Buffer
		r.Warnings = &warns
		spec := testSpec(engines.BFS, 1)
		spec.Engines = []string{engine}
		spec.Compress = compress
		spec.SyncSSSP = syncSSSP
		if _, err := r.Run(spec, el); err != nil {
			t.Fatalf("%s run failed: %v", engine, err)
		}
		return warns.String()
	}

	// GraphMat has no compressed-adjacency path: Compress must warn.
	got := run("GraphMat", true, false)
	if !strings.Contains(got, "event=knob-drop") ||
		!strings.Contains(got, "engine=GraphMat") ||
		!strings.Contains(got, "knob=compress") {
		t.Errorf("GraphMat+Compress warning missing or malformed: %q", got)
	}

	// GAP declares both knobs: no warning for either.
	if got := run("GAP", true, true); got != "" {
		t.Errorf("GAP honored knobs but warned: %q", got)
	}

	// GraphMat also lacks a synchronous SSSP mode; assert the knob
	// name distinguishes which request was dropped.
	if got := run("GraphMat", false, true); !strings.Contains(got, "knob=sync-sssp") {
		t.Errorf("GraphMat+SyncSSSP warning missing: %q", got)
	}

	// Every engine-side entry of the knob table, requested on an engine
	// that does not declare it, warns exactly once under the table's name
	// — and GAP, which declares every knob, stays silent.
	for i := range core.Knobs {
		k := &core.Knobs[i]
		if k.Engine == nil {
			continue
		}
		for engine, wantLines := range map[string]int{"GraphMat": 1, "GAP": 0} {
			spec := testSpec(engines.PageRank, 1)
			spec.Engines = []string{engine}
			switch p := k.Field(&spec).(type) {
			case *bool:
				*p = true
			case **core.MutationSchedule:
				*p = &core.MutationSchedule{Batches: 1, BatchSize: 4}
			default:
				t.Fatalf("engine-side knob %s has a field type this test cannot request: %T", k.Name, p)
			}
			r := testRunner()
			var warns bytes.Buffer
			r.Warnings = &warns
			if _, err := r.Run(spec, el); err != nil {
				t.Fatalf("%s with %s: %v", engine, k.Name, err)
			}
			lines := strings.Split(strings.TrimSpace(warns.String()), "\n")
			if warns.Len() == 0 {
				lines = nil
			}
			if len(lines) != wantLines {
				t.Fatalf("%s with %s: %d warnings, want %d: %q", engine, k.Name, len(lines), wantLines, warns.String())
			}
			if wantLines == 1 && !strings.Contains(lines[0], "engine=GraphMat knob="+k.Name+" ") {
				t.Errorf("%s with %s: warning not keyed by the table name: %q", engine, k.Name, lines[0])
			}
		}
	}

	// A nil Warnings writer must stay the default and not crash.
	r := testRunner()
	spec := testSpec(engines.BFS, 1)
	spec.Engines = []string{"GraphMat"}
	spec.Compress = true
	if _, err := r.Run(spec, el); err != nil {
		t.Fatalf("nil-Warnings run failed: %v", err)
	}
}
