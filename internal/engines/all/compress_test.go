// Compressed-adjacency walls: under Spec.Compress the GAP and
// Graph500 BFS/PageRank inner loops decode delta+varint neighbor
// streams on the fly. Conformance (outputs bit-identical to the
// uncompressed run for every kernel of every engine) and determinism
// under every scheduling policy are TestScheduleIndependence's
// compress rows. Here, liveness: for the kernels that actually decode
// (GAP BFS/PR, Graph500 BFS) the modeled duration trace must differ
// from the raw-CSR run: equal traces would mean the knob never reached
// the inner loops.
package all

import (
	"slices"
	"testing"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/harness"
	"github.com/hpcl-repro/epg/internal/kronecker"
)

// TestCompressChangesModeledCosts pins knob liveness per decoding
// kernel: the compressed run's modeled trace must differ from the raw
// run's for GAP BFS, GAP PageRank, and Graph500 BFS (decode cycles and
// compressed bytes replace the raw 4 B/edge stream), while engines
// without a compressed path (e.g. GraphMat PageRank) must be
// byte-identical — the knob may not leak into them.
func TestCompressChangesModeledCosts(t *testing.T) {
	g, root := determinismGraph(t)
	decoding := []struct {
		name string
		alg  engines.Algorithm
	}{
		{GAP, engines.BFS},
		{GAP, engines.PageRank},
		{Graph500, engines.BFS},
	}
	for _, c := range decoding {
		t.Run(c.name+"/"+string(c.alg), func(t *testing.T) {
			raw := runKernelOpts(t, c.name, c.alg, g, root, workers(1), runOpts{})
			comp := runKernelOpts(t, c.name, c.alg, g, root, workers(1), runOpts{compress: true})
			sameOutputs(t, "compress vs raw outputs", raw.out, comp.out)
			if raw.elapsed == comp.elapsed && sameDurations(raw, comp) {
				t.Error("compressed duration trace byte-identical to raw: Compress not reaching the inner loop")
			}
		})
	}
	// Engines that ignore the knob must be bitwise unaffected.
	raw := runKernelOpts(t, GraphMat, engines.PageRank, g, root, workers(1), runOpts{})
	comp := runKernelOpts(t, GraphMat, engines.PageRank, g, root, workers(1), runOpts{compress: true})
	sameOutputs(t, "graphmat outputs", raw.out, comp.out)
	sameModeled(t, "graphmat charges", raw, comp)
}

// TestSpecCompressKnobEndToEnd drives the harness with Spec.Compress:
// per-trial modeled measurements must be identical across worker
// counts, the knob must move modeled time relative to the raw run for
// a decoding kernel, and the construction phase must absorb the encode
// pass (GAP's Kernel-1 analogue grows).
func TestSpecCompressKnobEndToEnd(t *testing.T) {
	el := kronecker.Generate(kronecker.Params{Scale: 9, Seed: 7})
	r := harness.NewRunner(Registry())
	run := func(workers int, compress bool) (alg, cons []float64) {
		spec := coreSpec(engines.BFS, workers)
		spec.Engines = []string{GAP, Graph500}
		spec.Compress = compress
		rs, err := r.Run(spec, el)
		if err != nil {
			t.Fatal(err)
		}
		alg = make([]float64, len(rs))
		cons = make([]float64, len(rs))
		for i, res := range rs {
			alg[i] = res.AlgorithmSec
			cons[i] = res.ConstructionSec
		}
		return alg, cons
	}
	baseAlg, baseCons := run(1, true)
	for _, workers := range []int{2, 4} {
		gotAlg, gotCons := run(workers, true)
		sameFloat64sBitwise(t, "compress spec algorithm seconds", baseAlg, gotAlg)
		sameFloat64sBitwise(t, "compress spec construction seconds", baseCons, gotCons)
	}
	rawAlg, rawCons := run(1, false)
	if slices.Equal(baseAlg, rawAlg) {
		t.Error("Compress=true modeled algorithm seconds identical to raw: knob not reaching the engines")
	}
	if slices.Equal(baseCons, rawCons) {
		t.Error("Compress=true construction seconds identical to raw: encode pass not charged")
	}
}
