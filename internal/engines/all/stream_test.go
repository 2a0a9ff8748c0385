// Streaming conformance walls: the mutation phase (Spec.Mutations)
// must be a pure function of the spec. The harness already enforces
// the core invariant in-run — every incrementally maintained PR/WCC
// result is compared bitwise against a full recompute on the
// post-batch graph and any divergence is an error, not a warning —
// so these walls drive that machinery across the knob matrix
// (compressed adjacency on/off) and worker counts, and pin the
// engine-capability contract: an engine either serves the stream
// conformantly or drops the knob with a warning, never silently.
package all

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/harness"
)

// streamWallSpec is the pinned stream geometry of the walls: three
// batches of 48 ops, 40% deletes — big enough to dirty real chunk
// sets, small enough to keep the recompute references cheap.
func streamWallSpec(alg engines.Algorithm, workers int, compress bool) core.Spec {
	return core.Spec{
		Dataset:   "kron-10",
		Algorithm: alg,
		Engines:   []string{GAP},
		Threads:   8,
		Workers:   workers,
		Roots:     2,
		Seed:      5,
		Compress:  compress,
		Mutations: &core.MutationSchedule{Batches: 3, BatchSize: 48, DeleteFrac: 0.4, Seed: 13},
	}
}

func runStreamRows(t *testing.T, spec core.Spec) []core.Result {
	t.Helper()
	el, err := harness.ResolveDataset(spec.Dataset, harness.DatasetOptions{Seed: spec.Seed})
	if err != nil {
		t.Fatal(err)
	}
	results, err := harness.NewRunner(Registry()).Run(spec, el)
	if err != nil {
		t.Fatal(err)
	}
	var stream []core.Result
	for _, r := range results {
		if r.Batch > 0 {
			stream = append(stream, r)
		}
	}
	return stream
}

// TestStreamConformanceAcrossWorkersAndCompress: for PR and WCC, with
// the raw and the compressed adjacency, the stream phase completes
// with its in-run bitwise conformance check (incremental == full
// recompute per batch) and produces rows identical across worker
// counts in everything but wall-clock — the determinism-wall pattern
// extended to the mutation phase.
func TestStreamConformanceAcrossWorkersAndCompress(t *testing.T) {
	for _, alg := range []engines.Algorithm{engines.PageRank, engines.WCC} {
		for _, compress := range []bool{false, true} {
			name := string(alg)
			if compress {
				name += "/compress"
			}
			t.Run(name, func(t *testing.T) {
				base := runStreamRows(t, streamWallSpec(alg, 1, compress))
				if len(base) != 3 {
					t.Fatalf("stream rows: got %d, want 3", len(base))
				}
				for i, r := range base {
					if r.Batch != i+1 {
						t.Errorf("row %d has batch index %d", i, r.Batch)
					}
					if r.MutateSec <= 0 || r.MaintainSec <= 0 || r.RecomputeSec <= 0 {
						t.Errorf("batch %d: non-positive modeled stream costs: %+v", r.Batch, r)
					}
				}
				for _, workers := range []int{2, 4} {
					got := runStreamRows(t, streamWallSpec(alg, workers, compress))
					if len(got) != len(base) {
						t.Fatalf("workers=%d: %d stream rows, want %d", workers, len(got), len(base))
					}
					for i := range base {
						a, b := base[i], got[i]
						a.WallSec, b.WallSec = 0, 0
						if !reflect.DeepEqual(a, b) {
							t.Errorf("workers=%d batch %d diverged from workers=1:\n  base: %+v\n  got:  %+v",
								workers, a.Batch, a, b)
						}
					}
				}
			})
		}
	}
}

// TestStreamCapabilityContractAllEngines: every registered engine that
// runs PageRank either serves the mutation phase (stream rows present,
// costs positive, in-run conformance passed) or drops the knob with a
// structured warning naming the engine — the Decl.Knobs
// contract, walled so a new engine cannot silently half-support
// streaming.
func TestStreamCapabilityContractAllEngines(t *testing.T) {
	el, err := harness.ResolveDataset("kron-10", harness.DatasetOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Names {
		eng, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if !eng.Has(engines.PageRank) {
			continue
		}
		t.Run(name, func(t *testing.T) {
			spec := streamWallSpec(engines.PageRank, 2, false)
			spec.Engines = []string{name}
			spec.Compress = false
			runner := harness.NewRunner(Registry())
			var warnings bytes.Buffer
			runner.Warnings = &warnings
			results, err := runner.Run(spec, el)
			if err != nil {
				t.Fatal(err)
			}
			var stream int
			for _, r := range results {
				if r.Batch > 0 {
					stream++
				}
			}
			dropped := strings.Contains(warnings.String(), "knob=mutations") &&
				strings.Contains(warnings.String(), "engine="+name)
			switch {
			case stream == spec.Mutations.Batches && !dropped:
				// Conformant streamer (the harness verified bit-equality).
			case stream == 0 && dropped:
				// Honest knob drop.
			default:
				t.Errorf("engine %s: %d stream rows, dropped=%t — neither conformant service nor an honest drop (warnings: %q)",
					name, stream, dropped, warnings.String())
			}
		})
	}
}
