package gap

import (
	"math"
	"sync/atomic"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/traverse"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// PageRank implements engines.Instance with the suite's pull-based
// formulation: each vertex gathers rank/degree contributions from its
// in-neighbors, so no atomics are needed in the hot loop. Scores are
// float64; the stopping criterion is the paper's homogenized L1 norm
// with ε = 6e-8. The three regions of an iteration are shared sweeps
// (traverse.Sweep): the dangling-mass and L1 reductions fold per-chunk
// partials in chunk order, so ranks and iteration counts are
// bit-identical across runs and worker counts.
func (inst *Instance) PageRank(opts engines.PROpts) (*engines.PRResult, error) {
	inst.BuildStructure()
	opts = opts.Normalize()
	n := inst.n
	if n == 0 {
		return &engines.PRResult{Rank: nil}, nil
	}
	inv := 1.0 / float64(n)
	// One rank vector is made per call; whichever of the pair is not
	// handed out when the iterations end is the next call's second one.
	ws := &inst.ws
	rank, next := make([]float64, n), traverse.Resized(ws.prSpare, n)
	ws.prContrib, ws.prOutDeg = traverse.Resized(ws.prContrib, n), traverse.Resized(ws.prOutDeg, n)
	contrib, outDeg := ws.prContrib, ws.prOutDeg
	clear(contrib) // a dangling vertex's entry is never written
	for v := range rank {
		rank[v] = inv
		outDeg[v] = inst.out.Degree(graph.VID(v)) // of this epoch: Mutate and the binds swap it
	}

	res := &engines.PRResult{}
	m, tr, in := inst.m, &inst.trav, inst.inRows()
	gContrib, gPull, gL1 := prGrains(m, n)
	for iter := 1; iter <= opts.MaxIter; iter++ {
		if err := tr.Poll("gap: PageRank"); err != nil {
			return nil, err
		}
		// Per-vertex contributions and the dangling sum.
		dangling, _ := tr.Sweep(m, n, gContrib, &prContrib, func(c *traverse.Chunk, lo, hi int) {
			c.Sum = danglingPartial(rank, outDeg, contrib, lo, hi)
		})
		var dangParts []float64
		if inst.prRec != nil {
			dangParts = tr.Partials()
		}
		base := (1-opts.Damping)*inv + opts.Damping*dangling*inv

		// Pull phase.
		tr.Sweep(m, n, gPull, &prPull, func(c *traverse.Chunk, lo, hi int) {
			for v := lo; v < hi; v++ {
				sum := 0.0
				for _, u := range c.Row(in, v) {
					sum += contrib[u]
				}
				next[v] = base + opts.Damping*sum
			}
		})

		// L1 convergence test.
		l1, _ := tr.Sweep(m, n, gL1, &prL1, func(c *traverse.Chunk, lo, hi int) {
			c.Sum = l1Partial(next, rank, lo, hi)
		})

		rank, next = next, rank
		res.Iterations = iter
		if inst.prRec != nil {
			inst.prRec.record(rank, dangParts, tr.Partials(), dangling, base, l1)
		}
		if l1 < opts.Epsilon {
			break
		}
	}
	res.Rank, ws.prSpare = rank, next
	return res, nil
}

// prGrains resolves the chunk sizes of an iteration's three regions.
// The incremental replay folds cached per-chunk partials, so it must
// cut the same chunks.
func prGrains(m *simmachine.Machine, n int) (gContrib, gPull, gL1 int) {
	return m.Grain(n, 2048, 1), m.Grain(n, 1024, 1), m.Grain(n, 4096, 1)
}

// danglingPartial is one chunk of the contribution pass: it returns the
// chunk's share of the dangling mass and leaves every other vertex's
// rank/degree in contrib (nil in the incremental replay, which divides
// per pulled edge instead). l1Partial is one chunk of the L1 norm. The
// kernel and the replay both fold exactly these, in chunk order.
func danglingPartial(rank []float64, outDeg []int64, contrib []float64, lo, hi int) float64 {
	p := 0.0
	for v := lo; v < hi; v++ {
		switch {
		case outDeg[v] == 0:
			p += rank[v]
		case contrib != nil:
			contrib[v] = rank[v] / float64(outDeg[v])
		}
	}
	return p
}

func l1Partial(cur, prev []float64, lo, hi int) float64 {
	p := 0.0
	for v := lo; v < hi; v++ {
		p += math.Abs(cur[v] - prev[v])
	}
	return p
}

// WCC implements engines.Instance with Shiloach-Vishkin-style label
// propagation (the suite's connected components kernel): every vertex
// adopts the minimum label in its neighborhood — the shared hook step,
// one synchronous round, always over the raw rows — then a
// pointer-jumping pass sends every label to the root of its chain,
// until a round lowers none.
func (inst *Instance) WCC() (*engines.WCCResult, error) {
	inst.BuildStructure()
	n := inst.n
	// comp is made per call and handed out; the other of the pair is kept.
	comp, next := make([]graph.VID, n), traverse.Resized(inst.ws.wccSpare, n)
	for i := range comp {
		comp[i] = graph.VID(i)
	}
	var in traverse.Rows
	if inst.in != inst.out {
		in = inst.in
	}
	for {
		if err := inst.trav.Poll("gap: WCC"); err != nil {
			return nil, err
		}
		changed := inst.trav.Hook(inst.m, 1024, &ccHook, inst.out, in, comp, next)
		comp, next = next, comp
		// Pointer jumping: comp[v] = comp[comp[v]] until stable. In
		// place, but every schedule leaves each v at its chain's root.
		inst.trav.Sweep(inst.m, n, 2048, &ccJump, func(_ *traverse.Chunk, lo, hi int) {
			for v := lo; v < hi; v++ {
				for {
					c := atomic.LoadUint32(&comp[v])
					cc := atomic.LoadUint32(&comp[c])
					if cc >= c {
						break
					}
					atomic.StoreUint32(&comp[v], cc)
				}
			}
		})
		if changed == 0 {
			break
		}
	}
	inst.ws.wccSpare = next
	return &engines.WCCResult{Component: comp}, nil
}
