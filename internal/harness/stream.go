package harness

import (
	"fmt"
	"sort"

	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/simmachine"
	"github.com/hpcl-repro/epg/internal/xrand"
)

// maxInsertRetries bounds the rejection sampling that keeps generated
// inserts off the diagonal; a self-loop slipping through is harmless
// (the structures drop it) but wastes a batch slot.
const maxInsertRetries = 32

// streamShadow tracks the engine-independent ground truth of the
// mutation stream: the homogenized graph's current epoch, advanced by
// (*graph.CSR).Apply and read through the row accessors. Batches are
// generated against it (so every engine sees the identical stream) and
// the post-batch edge list reconstructed from it feeds the
// full-recompute reference.
type streamShadow struct {
	cur      *graph.CSR
	directed bool
	weighted bool
}

// batch generates one deterministic mutation batch against the current
// shadow state: each op is a delete of a uniformly sampled stored edge
// with probability deleteFrac, otherwise a uniform random non-self-loop
// insert. The RNG is seeded per batch (Mix64(seed, batch)), so the
// stream for batch k never depends on how earlier batches were
// consumed. A stored edge is drawn by its index in row order, through
// a flat epoch's Offsets or an overlay's degreePrefix.
func (s *streamShadow) batch(ms *core.MutationSchedule, batchIdx int) graph.Batch {
	r := xrand.New(xrand.Mix64(ms.Seed) ^ xrand.Mix64(uint64(batchIdx)*0x9e3779b97f4a7c15))
	c := s.cur
	n := c.NumVertices
	off := c.Offsets
	var row graph.RowBuf
	b := make(graph.Batch, 0, ms.BatchSize)
	for i := 0; i < ms.BatchSize; i++ {
		if r.Float64() < ms.DeleteFrac && c.NumEdges() > 0 {
			if off == nil {
				off = degreePrefix(c)
			}
			idx := int64(r.Intn(int(c.NumEdges())))
			u := sort.Search(n, func(v int) bool { return off[v+1] > idx })
			adj, _ := c.Row(graph.VID(u), &row)
			b = append(b, graph.Mutation{Op: graph.MutDelete, Src: graph.VID(u), Dst: adj[idx-off[u]]})
			continue
		}
		m := graph.Mutation{Op: graph.MutInsert, W: float32(1 - r.Float64())}
		m.Src = graph.VID(r.Intn(n))
		m.Dst = graph.VID(r.Intn(n))
		for retry := 0; m.Src == m.Dst && retry < maxInsertRetries; retry++ {
			m.Dst = graph.VID(r.Intn(n))
		}
		b = append(b, m)
	}
	return b
}

// degreePrefix returns what c's Offsets would be if it were flat.
func degreePrefix(c *graph.CSR) []int64 {
	off := make([]int64, c.NumVertices+1)
	for v := range c.NumVertices {
		off[v+1] = off[v] + c.Degree(graph.VID(v))
	}
	return off
}

// edgeList reconstructs the edge list the shadow's current epoch
// represents — the exact input from which a cold homogenize+build
// reproduces the same normalized structure.
func (s *streamShadow) edgeList() *graph.EdgeList {
	c := s.cur
	el := &graph.EdgeList{NumVertices: c.NumVertices, Weighted: s.weighted, Directed: s.directed}
	var buf graph.RowBuf
	for v := 0; v < c.NumVertices; v++ {
		adj, ws := c.WeightedRowBuf(graph.VID(v), &buf)
		for i, u := range adj {
			if !s.directed && u < graph.VID(v) {
				continue
			}
			e := graph.Edge{Src: graph.VID(v), Dst: u}
			if ws != nil {
				e.W = ws[i]
			}
			el.Edges = append(el.Edges, e)
		}
	}
	return el
}

// runStream executes the spec's mutation schedule against one engine's
// live instance: per batch, apply the mutations, re-converge the
// resident result incrementally, and wall the outcome bit-equal
// against a cold full recompute on the post-batch graph. The recompute
// runs on a fresh machine with the same spec knobs, so RecomputeSec is
// the honest displaced alternative (rebuild + cold kernel).
func (r *Runner) runStream(spec core.Spec, g *graph.Simple, d *engines.Decl, opts engines.Options, st engines.Streamer, m *simmachine.Machine, owner []int16) ([]core.Result, error) {
	ms := spec.Mutations
	shadow := &streamShadow{cur: g.Out, directed: g.Directed, weighted: g.Weighted}

	// Establish the incremental baseline outside the per-batch
	// accounting: the first incremental call on a fresh instance is a
	// (recorded) full run.
	if err := r.maintain(spec, st, nil); err != nil {
		return nil, fmt.Errorf("stream baseline: %w", err)
	}

	results := make([]core.Result, 0, ms.Batches)
	for batch := 1; batch <= ms.Batches; batch++ {
		b := shadow.batch(ms, batch)
		next, _, err := shadow.cur.Apply(b, shadow.directed)
		if err != nil {
			return nil, fmt.Errorf("stream batch %d (shadow): %w", batch, err)
		}
		shadow.cur = next

		res := core.Result{
			Engine:    d.Name,
			Dataset:   spec.Dataset,
			Algorithm: spec.Algorithm,
			Threads:   spec.Threads,
			Trial:     batch - 1,
			Batch:     batch,
		}
		t0 := m.Elapsed()
		if _, err := st.Mutate(b); err != nil {
			return nil, fmt.Errorf("stream batch %d (mutate): %w", batch, err)
		}
		res.MutateSec = m.Elapsed() - t0

		t1 := m.Elapsed()
		inc := &streamOutcome{}
		if err := r.maintain(spec, st, inc); err != nil {
			return nil, fmt.Errorf("stream batch %d (incremental): %w", batch, err)
		}
		res.MaintainSec = m.Elapsed() - t1
		res.AlgorithmSec = res.MaintainSec
		res.Iterations = inc.iterations

		// Full-recompute reference on an identically-configured fresh
		// machine; also the conformance oracle.
		ref := &streamOutcome{}
		refSec, err := r.recompute(spec, shadow.edgeList(), d, opts, owner, ref)
		if err != nil {
			return nil, fmt.Errorf("stream batch %d (recompute): %w", batch, err)
		}
		res.RecomputeSec = refSec

		if err := inc.equal(ref); err != nil {
			return nil, fmt.Errorf("stream batch %d: incremental %s diverged from full recompute: %w",
				batch, spec.Algorithm, err)
		}
		results = append(results, res)
	}
	return results, nil
}

// streamOutcome captures the algorithm output in a comparable form.
type streamOutcome struct {
	rank       []float64
	iterations int
	component  []graph.VID
}

func (o *streamOutcome) equal(ref *streamOutcome) error {
	if o.iterations != ref.iterations {
		return fmt.Errorf("iterations %d vs %d", o.iterations, ref.iterations)
	}
	if len(o.rank) != len(ref.rank) || len(o.component) != len(ref.component) {
		return fmt.Errorf("output length %d/%d vs %d/%d", len(o.rank), len(o.component), len(ref.rank), len(ref.component))
	}
	for v := range ref.rank {
		if o.rank[v] != ref.rank[v] {
			return fmt.Errorf("rank[%d] = %x vs %x", v, o.rank[v], ref.rank[v])
		}
	}
	for v := range ref.component {
		if o.component[v] != ref.component[v] {
			return fmt.Errorf("component[%d] = %d vs %d", v, o.component[v], ref.component[v])
		}
	}
	return nil
}

// maintain runs the incremental kernel for the spec's algorithm,
// recording the outcome when out is non-nil.
func (r *Runner) maintain(spec core.Spec, st engines.Streamer, out *streamOutcome) error {
	switch spec.Algorithm {
	case engines.PageRank:
		res, err := st.IncrementalPageRank(engines.DefaultPROpts())
		if err != nil {
			return err
		}
		if out != nil {
			out.rank = res.Rank
			out.iterations = res.Iterations
		}
	case engines.WCC:
		res, err := st.IncrementalWCC()
		if err != nil {
			return err
		}
		if out != nil {
			out.component = res.Component
		}
	default:
		return fmt.Errorf("harness: no incremental maintainer for %s", spec.Algorithm)
	}
	return nil
}

// recompute costs and captures the displaced alternative: a cold
// rebuild plus full kernel run on the post-batch graph, on a fresh
// machine with the spec's knobs.
func (r *Runner) recompute(spec core.Spec, post *graph.EdgeList, d *engines.Decl, opts engines.Options, owner []int16, out *streamOutcome) (float64, error) {
	g, err := graph.Homogenize(post)
	if err != nil {
		return 0, err
	}
	m, _ := spec.NewMachine(r.Model, r.Power, owner)
	inst := d.New()
	inst.Bind(g, m, opts)
	inst.BuildStructure()
	res, err := engines.RunAlgorithm(inst, spec.Algorithm, 0)
	if err != nil {
		return 0, err
	}
	switch v := res.(type) {
	case *engines.PRResult:
		out.rank = v.Rank
		out.iterations = v.Iterations
	case *engines.WCCResult:
		out.component = v.Component
	}
	return m.Elapsed(), nil
}
