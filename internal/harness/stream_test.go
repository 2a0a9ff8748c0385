package harness

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/gap"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/simmachine"
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

// A stream whose graph's out-rows are an overlay draws the very
// batches a graph holding their flat compaction draws: the degree
// prefix an overlay's deletes are indexed by is the flat epoch's
// Offsets, entry for entry, so the stream does not depend on the row
// form of the graph it is drawn from. The batches are drawn, as
// runStream draws them, from the graph GAP's Mutate left. That this
// graph equals a cold build of its edges is TestStreamEndsOnAColdBuild's
// wall.
func TestStreamShadowOverlayDrawsFlatBatches(t *testing.T) {
	ms := &core.MutationSchedule{Batches: 8, BatchSize: 24, DeleteFrac: 0.5, Seed: 7}
	for _, directed := range []bool{false, true} {
		el, err := ResolveDataset("kron-10", DatasetOptions{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		el.Directed = directed
		g, err := graph.Homogenize(el)
		if err != nil {
			t.Fatal(err)
		}
		inst := gap.Decl.New()
		inst.Bind(g, simmachine.New(simmachine.Haswell72(), 8), engines.Options{Mutations: true})
		st := inst.(engines.Streamer)
		overlays, deletes := 0, 0
		for i := 1; i <= ms.Batches; i++ {
			c := st.Graph().Out
			flat := c.Flat()
			got, want := streamBatch(c, ms, i), streamBatch(flat, ms, i)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("directed=%v batch %d: the overlay draws %v, its flat compaction %v", directed, i, got, want)
			}
			if c.Offsets == nil {
				overlays++
				if off := degreePrefix(c); !slices.Equal(off, flat.Offsets) {
					t.Fatalf("directed=%v batch %d: the overlay's degree prefix differs from its compaction's Offsets", directed, i)
				}
			}
			for _, mu := range got {
				if mu.Op == graph.MutDelete {
					deletes++
				}
			}
			if _, err := st.Mutate(got); err != nil {
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

// streamProbe is GAP's instance recording every graph it is bound to
// and, after every Mutate, the batch and the graph it left.
type streamProbe struct {
	*gap.Instance
	rec *streamRecord
}

type streamRecord struct {
	binds   []*graph.Simple
	batches []graph.Batch
	after   []*graph.Simple
}

func (p *streamProbe) Bind(g *graph.Simple, m *simmachine.Machine, o engines.Options) {
	if g != nil {
		p.rec.binds = append(p.rec.binds, g)
	}
	p.Instance.Bind(g, m, o)
}

func (p *streamProbe) Mutate(b graph.Batch) (*engines.MutationReport, error) {
	rep, err := p.Instance.Mutate(b)
	if err == nil {
		p.rec.batches = append(p.rec.batches, b)
		p.rec.after = append(p.rec.after, p.Graph())
	}
	return rep, err
}

// edgeSet is a graph's edges by endpoints, an undirected edge under its
// lower endpoint first, each at its weight.
type edgeSet map[[2]graph.VID]float32

// add inserts or deletes one edge as graph.Mutation defines it: a
// self-loop is dropped, an insert of a present edge keeps the lower
// weight, a delete of an absent edge does nothing.
func (s edgeSet) add(mu graph.Mutation, directed bool) {
	k := [2]graph.VID{mu.Src, mu.Dst}
	if !directed && k[0] > k[1] {
		k[0], k[1] = k[1], k[0]
	}
	switch {
	case k[0] == k[1]:
	case mu.Op == graph.MutDelete:
		delete(s, k)
	default:
		if w, ok := s[k]; !ok || mu.W < w {
			s[k] = mu.W
		}
	}
}

// rowsDiffer names where the flat forms of a and b differ, weights by
// their bits; "" when they are byte-equal.
func rowsDiffer(a, b *graph.CSR) string {
	a, b = a.Flat(), b.Flat()
	bits := func(ws []float32) []uint32 {
		out := make([]uint32, len(ws))
		for i, w := range ws {
			out[i] = math.Float32bits(w)
		}
		return out
	}
	switch {
	case !slices.Equal(a.Offsets, b.Offsets):
		return "offsets"
	case !slices.Equal(a.Adj, b.Adj):
		return "adjacency"
	case (a.Weights == nil) != (b.Weights == nil) || !slices.Equal(bits(a.Weights), bits(b.Weights)):
		return "weights"
	}
	return ""
}

// The stream ends on a cold build. Its batches are applied once, by the
// engine, and the recompute binds the graph the engine's Mutate left,
// so the graph the run checks its incremental answers against is only
// as right as that Mutate: after every batch of a GAP stream Run, on
// kron-10 undirected and directed, with and without Compress, for WCC
// and PageRank, the Streamer's graph must be byte-equal to Homogenize
// of the base edge list with every batch drawn so far applied to it
// edge by edge, with that build's InputEdges, and the batch's recompute
// must bind that very graph.
func TestStreamEndsOnAColdBuild(t *testing.T) {
	ms := &core.MutationSchedule{Batches: 4, BatchSize: 96, DeleteFrac: 0.3, Seed: 3}
	for _, directed := range []bool{false, true} {
		el, err := ResolveDataset("kron-10", DatasetOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		el.Directed = directed
		for _, compress := range []bool{false, true} {
			for _, alg := range []engines.Algorithm{engines.WCC, engines.PageRank} {
				name := fmt.Sprintf("directed=%v compress=%v %s", directed, compress, alg)
				rec := &streamRecord{}
				probe := gap.Decl
				probe.New = func() engines.Instance { return &streamProbe{gap.Decl.New().(*gap.Instance), rec} }
				spec := core.Spec{Dataset: "kron-10", Algorithm: alg, Engines: []string{"GAP"}, Threads: 8,
					Roots: 1, Seed: 1, Compress: compress, Mutations: ms}
				if _, err := NewRunner(engines.Registry{&probe}).Run(spec, el); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(rec.after) != ms.Batches || len(rec.binds) != 1+ms.Batches {
					t.Fatalf("%s: %d mutates and %d binds; want %d and %d", name, len(rec.after), len(rec.binds), ms.Batches, 1+ms.Batches)
				}
				if rec.binds[0] != graph.Memoized(el) {
					t.Fatalf("%s: the stream's instance is not bound to the run's graph", name)
				}
				overlays := 0
				for _, g := range rec.after {
					if g.Out.Offsets == nil {
						overlays++
					}
				}
				t.Logf("%s: %d of %d epochs overlays, weighted=%v", name, overlays, ms.Batches, el.Weighted)
				set := edgeSet{}
				for _, e := range el.Edges {
					set.add(graph.Mutation{Op: graph.MutInsert, Src: e.Src, Dst: e.Dst, W: e.W}, directed)
				}
				for i, b := range rec.batches {
					for _, mu := range b {
						set.add(mu, directed)
					}
					cold := &graph.EdgeList{NumVertices: el.NumVertices, Directed: directed, Weighted: el.Weighted}
					for k, w := range set {
						cold.Edges = append(cold.Edges, graph.Edge{Src: k[0], Dst: k[1], W: w})
					}
					want, err := graph.Homogenize(cold)
					if err != nil {
						t.Fatal(err)
					}
					got := rec.after[i]
					if d := rowsDiffer(got.Out, want.Out); d != "" {
						t.Fatalf("%s batch %d: Out differs from a cold build in its %s", name, i+1, d)
					}
					if directed {
						if d := rowsDiffer(got.In, want.In); d != "" {
							t.Fatalf("%s batch %d: In differs from a cold build in its %s", name, i+1, d)
						}
					}
					if got.InputEdges != want.InputEdges {
						t.Fatalf("%s batch %d: InputEdges %d, a cold build's %d", name, i+1, got.InputEdges, want.InputEdges)
					}
					if rec.binds[i+1] != got {
						t.Fatalf("%s batch %d: the recompute is bound to another graph than the one Mutate left", name, i+1)
					}
				}
			}
		}
	}
}
