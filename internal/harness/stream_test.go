package harness

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
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

// A shadow whose out-rows are an overlay draws the very batches a
// shadow holding their flat compaction draws: the degree prefix an
// overlay's deletes are indexed by is the flat epoch's Offsets, entry
// for entry, so the stream does not depend on the shadow's row form.
// That the shadow's graph equals a cold build of its edges is
// graph.TestSimpleApplyEqualsColdBuild's wall.
func TestStreamShadowOverlayDrawsFlatBatches(t *testing.T) {
	ms := &core.MutationSchedule{Batches: 8, BatchSize: 24, DeleteFrac: 0.5, Seed: 7}
	for _, directed := range []bool{false, true} {
		el, err := ResolveDataset("kron-10", DatasetOptions{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		el.Directed = directed
		s, err := graph.Homogenize(el)
		if err != nil {
			t.Fatal(err)
		}
		overlays, deletes := 0, 0
		for i := 1; i <= ms.Batches; i++ {
			flat := s.Out.Flat()
			got, want := streamBatch(s.Out, ms, i), streamBatch(flat, ms, i)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("directed=%v batch %d: the overlay shadow draws %v, the flat one %v", directed, i, got, want)
			}
			if s.Out.Offsets == nil {
				overlays++
				if off := degreePrefix(s.Out); !slices.Equal(off, flat.Offsets) {
					t.Fatalf("directed=%v batch %d: the overlay's degree prefix differs from its compaction's Offsets", directed, i)
				}
			}
			for _, mu := range got {
				if mu.Op == graph.MutDelete {
					deletes++
				}
			}
			if s, err = s.Apply(got); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("directed=%v: %d of %d batches drawn on an overlay, %d deletes", directed, overlays, ms.Batches, deletes)
		if overlays < ms.Batches/2 || deletes == 0 {
			t.Fatalf("directed=%v: %d of %d batches drawn on an overlay, %d deletes; the test needs overlays and deletes", directed, overlays, ms.Batches, deletes)
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
