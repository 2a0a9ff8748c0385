package main

import (
	"bytes"
	"fmt"
	"slices"

	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/kronecker"
	"github.com/hpcl-repro/epg/internal/snap"
)

// Schedule constants of the ingest workload.
const (
	ingestScale      = 15
	ingestShards     = 4
	ingestBatches    = 16
	ingestBatchOps   = 1024
	ingestDeleteFrac = 4 // one op in four is a delete
)

// homogenized is the build every engine and the server share: simple,
// symmetrized, sorted.
var homogenized = graph.BuildOptions{Symmetrize: true, DropSelfLoops: true, Dedup: true, Sort: true}

type ingestWL struct {
	scale   int
	seed    uint64
	graph   uint64 // the instance seed
	batches []graph.Batch
	// post is the expected structure after the batches: BuildCSR of the
	// benchmark's own post-batch edge list. Built for the warm-up round.
	post *graph.CSR
}

func newIngestWL(cfg config) *ingestWL {
	return &ingestWL{scale: ingestScale - cfg.scaleDelta, seed: cfg.seed, graph: cfg.instance()}
}

func (w *ingestWL) name() string     { return "ingest" }
func (w *ingestWL) headline() string { return "graph.mutate_apply" }
func (w *ingestWL) finish(*rec)      {}

// pipeline runs generate → write → read → build, the part of the round
// that set-up shares (the mutation stream is drawn against the read
// graph's densified vertex IDs).
func (w *ingestWL) pipeline(r *rec) (*graph.CSR, error) {
	var el *graph.EdgeList
	r.op("kronecker", "kronecker.generate", func() error {
		el = kronecker.Generate(kronecker.Params{Scale: w.scale, Seed: w.graph})
		return nil
	})
	r.val("edges", float64(len(el.Edges)))

	var file bytes.Buffer
	r.op("snap", "snap.write", func() error { return snap.Write(&file, el, "kron") })
	r.val("snap.bytes", float64(file.Len()))

	var rd *snap.ReadResult
	r.op("snap", "snap.read", func() (err error) {
		rd, err = snap.Read(bytes.NewReader(file.Bytes()))
		return err
	})
	if rd == nil {
		return nil, fmt.Errorf("snap read failed")
	}
	r.check("snap.read", func() error { return sameEdges(el, rd) })

	var csr *graph.CSR
	r.op("graph", "graph.build_csr", func() error {
		csr = graph.BuildCSR(rd.Graph, homogenized)
		return nil
	})
	r.val("csr.edges", float64(csr.NumEdges()))
	r.check("graph.build_csr", csr.Validate)
	return csr, nil
}

// sameEdges checks the snap round trip: every edge comes back in order
// with its weight, under the reader's original-ID mapping.
func sameEdges(el *graph.EdgeList, rd *snap.ReadResult) error {
	got := rd.Graph
	if len(got.Edges) != len(el.Edges) || got.Weighted != el.Weighted {
		return fmt.Errorf("read %d edges (weighted %v), wrote %d (weighted %v)", len(got.Edges), got.Weighted, len(el.Edges), el.Weighted)
	}
	for i, e := range el.Edges {
		g := got.Edges[i]
		if rd.OrigID[g.Src] != int64(e.Src) || rd.OrigID[g.Dst] != int64(e.Dst) || g.W != e.W {
			return fmt.Errorf("edge %d read as %d->%d w=%g, wrote %d->%d w=%g",
				i, rd.OrigID[g.Src], rd.OrigID[g.Dst], g.W, e.Src, e.Dst, e.W)
		}
	}
	return nil
}

func (w *ingestWL) setup(l *lane) error {
	r := newRec(l, false)
	csr, err := w.pipeline(r)
	if err != nil {
		return err
	}
	if r.failed > 0 {
		return fmt.Errorf("ingest set-up: %s", r.errs[0])
	}
	ms := newMutStream(csr, w.seed)
	w.batches = w.batches[:0]
	for i := 0; i < ingestBatches; i++ {
		w.batches = append(w.batches, ms.next(ingestBatchOps-ingestBatchOps/ingestDeleteFrac, ingestBatchOps/ingestDeleteFrac))
	}
	w.post = nil
	return nil
}

func (w *ingestWL) close() { w.batches, w.post = nil, nil }

func (w *ingestWL) round(r *rec) {
	csr, err := w.pipeline(r)
	if err != nil {
		r.fail("pipeline", err)
		return
	}
	for _, x := range csr.Offsets {
		r.mix(uint64(x))
	}

	var tr *graph.CSR
	r.op("graph", "graph.transpose", func() error { tr = graph.Transpose(csr, 0); return nil })
	r.mix(uint64(tr.NumEdges()))
	r.check("graph.transpose", tr.Validate)

	var cc *graph.CompressedCSR
	r.op("graph", "graph.compress", func() error { cc = graph.CompressCSR(csr, 0); return nil })
	r.val("compressed.bytes", float64(cc.TotalBytes()))
	r.mix(uint64(cc.TotalBytes()))
	r.check("graph.compress", cc.Validate)

	var decoded uint64
	r.op("graph", "graph.decode", func() error {
		var buf []graph.VID
		for v := 0; v < cc.NumVertices; v++ {
			buf = cc.DecodeNeighbors(graph.VID(v), buf)
			for _, u := range buf {
				decoded += uint64(u)
			}
			if r.verify && !slices.Equal(buf, csr.Neighbors(graph.VID(v))) {
				return fmt.Errorf("row %d decodes to %d neighbors, CSR has %d", v, len(buf), csr.Degree(graph.VID(v)))
			}
		}
		return nil
	})
	r.mix(decoded)

	var cut *graph.VertexCutStats
	r.op("graph", "graph.vertexcut", func() error { cut = graph.GreedyVertexCut(csr, ingestShards, nil); return nil })
	r.mix(uint64(cut.TotalRep))

	var mut *graph.MutableCSR
	r.op("graph", "graph.new_mutable", func() error { mut = graph.NewMutableCSR(csr, false); return nil })
	for _, b := range w.batches {
		var res *graph.ApplyResult
		r.op("graph", "graph.mutate_apply", func() (err error) {
			res, err = mut.Apply(b)
			return err
		})
		if res != nil {
			r.mix(uint64(res.EdgesTouched))
		}
	}
	final := mut.CSR()
	r.mix(uint64(final.NumEdges()))
	r.check("graph.mutate_apply", func() error {
		if w.post == nil {
			w.post = graph.BuildCSR(applyToEdgeList(csr, w.batches), homogenized)
		}
		return sameCSR(final, w.post)
	})
}

// sameCSR reports the first difference between two CSRs.
func sameCSR(got, want *graph.CSR) error {
	switch {
	case got.NumVertices != want.NumVertices:
		return fmt.Errorf("%d vertices, want %d", got.NumVertices, want.NumVertices)
	case !slices.Equal(got.Offsets, want.Offsets):
		return fmt.Errorf("row offsets differ")
	case !slices.Equal(got.Adj, want.Adj):
		return fmt.Errorf("adjacency differs")
	case !slices.Equal(got.Weights, want.Weights):
		return fmt.Errorf("weights differ")
	}
	return nil
}
