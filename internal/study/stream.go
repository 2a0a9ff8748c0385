package study

import (
	"fmt"

	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/all"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/harness"
)

// streamCell is one mutation batch: the harness's row and its geometry.
type streamCell struct {
	core.Result
	batchSize  int
	deleteFrac float64
}

// incremental is the modeled cost of keeping the answer: applying the
// batch, then maintaining the vector (PR reruns its kernel when the
// rows' membership changed; WCC repairs what changed).
func (c *streamCell) incremental() float64 { return c.MutateSec + c.MaintainSec }

// Stream is FIG_stream_study.csv: incremental PR/WCC maintenance against
// full recomputation over batch size x delete fraction, four batches a
// configuration, each applied through the GAP engine's Streamer hook.
// recompute_s is the displaced alternative — a rebuild plus a cold kernel
// run on the post-batch graph, on an identically-configured fresh
// machine — and the harness walls the two results bit-equal per batch,
// so speedup compares equally correct answers (ARCHITECTURE.md,
// "Streaming", reads the table). Drift means the batch generator, the
// mutation replay, the incremental maintainers or the cost model moved.
var Stream = declare("stream", "FIG_stream_study.csv", "kron-12", 7,
	[]Column[streamCell]{
		{"dataset", func(c *streamCell) any { return c.Dataset }, false},
		{"alg", func(c *streamCell) any { return string(c.Algorithm) }, false},
		{"batch_size", func(c *streamCell) any { return c.batchSize }, false},
		{"delete_frac", func(c *streamCell) any { return c.deleteFrac }, false},
		{"batch", func(c *streamCell) any { return c.Batch }, false},           // 1-based within the stream
		{"iterations", func(c *streamCell) any { return c.Iterations }, false}, // incremental PR's; 0 for WCC
		{"mutate_s", func(c *streamCell) any { return c.MutateSec }, false},
		{"maintain_s", func(c *streamCell) any { return c.MaintainSec }, false},
		{"recompute_s", func(c *streamCell) any { return c.RecomputeSec }, false},
		{"speedup", func(c *streamCell) any { return c.RecomputeSec / c.incremental() }, false},
	},
	func(el *graph.EdgeList, dataset string) ([]streamCell, error) {
		runner := harness.NewRunner(all.Registry())
		var cells []streamCell
		for _, alg := range []engines.Algorithm{engines.PageRank, engines.WCC} {
			for _, bs := range []int{16, 64, 256} {
				for _, df := range []float64{0, 0.25, 0.5} {
					results, err := runner.Run(core.Spec{
						Dataset: dataset, Algorithm: alg, Engines: []string{all.GAP},
						Threads: 8, Roots: 1, Seed: 7,
						Mutations: &core.MutationSchedule{Batches: 4, BatchSize: bs, DeleteFrac: df, Seed: 7},
					}, el)
					if err != nil {
						return nil, fmt.Errorf("%s bs=%d df=%g: %w", alg, bs, df, err)
					}
					for _, r := range results {
						if r.Batch == 0 {
							continue // the baseline trial, not a stream row
						}
						c := streamCell{r, bs, df}
						if c.incremental() <= 0 || r.RecomputeSec <= 0 {
							return nil, fmt.Errorf("%s bs=%d df=%g batch %d: non-positive modeled cost (incremental %g, recompute %g)",
								alg, bs, df, r.Batch, c.incremental(), r.RecomputeSec)
						}
						cells = append(cells, c)
					}
				}
			}
		}
		return cells, nil
	})
