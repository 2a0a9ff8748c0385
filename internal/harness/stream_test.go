package harness

import (
	"bytes"
	"strings"
	"testing"

	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
)

func streamSpec(alg engines.Algorithm) core.Spec {
	s := testSpec(alg, 2)
	s.Engines = []string{"GAP"}
	s.Mutations = &core.MutationSchedule{Batches: 3, BatchSize: 32, DeleteFrac: 0.4, Seed: 11}
	return s
}

// The stream phase appends one result row per batch, with the modeled
// phase breakdown filled in; the in-run conformance wall (incremental
// bit-equal to full recompute) has already passed if Run returns nil.
func TestRunStreamProducesPerBatchResults(t *testing.T) {
	for _, alg := range []engines.Algorithm{engines.PageRank, engines.WCC} {
		r := testRunner()
		spec := streamSpec(alg)
		el, err := ResolveDataset(spec.Dataset, DatasetOptions{Seed: spec.Seed})
		if err != nil {
			t.Fatal(err)
		}
		results, err := r.Run(spec, el)
		if err != nil {
			t.Fatal(err)
		}
		baseline, stream := 0, 0
		for _, res := range results {
			if res.Batch == 0 {
				baseline++
				continue
			}
			stream++
			if res.MutateSec <= 0 {
				t.Errorf("%s batch %d: no mutate time", alg, res.Batch)
			}
			if res.MaintainSec <= 0 || res.AlgorithmSec != res.MaintainSec {
				t.Errorf("%s batch %d: maintain %g, algorithm %g", alg, res.Batch, res.MaintainSec, res.AlgorithmSec)
			}
			if res.RecomputeSec <= 0 {
				t.Errorf("%s batch %d: no recompute time", alg, res.Batch)
			}
			if alg == engines.PageRank && res.Iterations <= 0 {
				t.Errorf("pr batch %d: no iterations", res.Batch)
			}
		}
		if baseline != 2 || stream != 3 {
			t.Fatalf("%s: %d baseline + %d stream rows, want 2 + 3", alg, baseline, stream)
		}
	}
}

// Engines without the Streamer hook warn and skip the phase instead of
// failing the run.
func TestRunStreamKnobDropWarning(t *testing.T) {
	spec := streamSpec(engines.PageRank)
	spec.Engines = []string{"GraphMat"}
	el, err := ResolveDataset(spec.Dataset, DatasetOptions{Seed: spec.Seed})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	r := testRunner()
	r.Warnings = &buf
	results, err := r.Run(spec, el)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Batch != 0 {
			t.Fatalf("GraphMat produced a stream row: %+v", res)
		}
	}
	w := buf.String()
	if !strings.Contains(w, "knob=mutations") || !strings.Contains(w, "engine=GraphMat") {
		t.Fatalf("missing mutations knob-drop warning, got %q", w)
	}
}

// Spec validation gates the streaming phase to the algorithms with an
// incremental maintainer.
func TestMutationScheduleValidation(t *testing.T) {
	base := streamSpec(engines.PageRank)
	cases := []struct {
		name string
		mod  func(*core.Spec)
		ok   bool
	}{
		{"valid", func(*core.Spec) {}, true},
		{"wcc", func(s *core.Spec) { s.Algorithm = engines.WCC }, true},
		{"bfs", func(s *core.Spec) { s.Algorithm = engines.BFS }, false},
		{"zero batches", func(s *core.Spec) { s.Mutations.Batches = 0 }, false},
		{"zero batch size", func(s *core.Spec) { s.Mutations.BatchSize = 0 }, false},
		{"bad delete frac", func(s *core.Spec) { s.Mutations.DeleteFrac = 1.5 }, false},
		{"negative delete frac", func(s *core.Spec) { s.Mutations.DeleteFrac = -0.1 }, false},
	}
	for _, c := range cases {
		s := base
		ms := *base.Mutations
		s.Mutations = &ms
		c.mod(&s)
		err := s.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
