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
func (inst *Instance) PageRank(opts engines.PROpts, dst *engines.PRResult) (*engines.PRResult, error) {
	inst.BuildStructure()
	opts = opts.Normalize()
	n := inst.n
	res := traverse.Result(dst)
	res.Rank, res.Iterations = traverse.Resized(res.Rank, n), 0
	if n == 0 {
		return res, nil
	}
	inv := 1.0 / float64(n)
	// The rank vector is dst's; the other of the pair is kept.
	ws := &inst.ws
	ws.prSpare = traverse.Resized(ws.prSpare, n)
	rank, next := res.Rank, ws.prSpare
	ws.prContrib, ws.prOutDeg = traverse.Resized(ws.prContrib, n), traverse.Resized(ws.prOutDeg, n)
	contrib, outDeg := ws.prContrib, ws.prOutDeg
	clear(contrib) // a dangling vertex's entry is never written
	for v := range rank {
		rank[v] = inv
		outDeg[v] = inst.out.Degree(graph.VID(v)) // of this epoch: Mutate and the binds swap it
	}

	m, tr := inst.m, &inst.trav
	pr := &ws.pr
	*pr = prCall{contrib: contrib, outDeg: outDeg, in: inst.inRows(), damping: opts.Damping}
	gContrib, gPull, gL1 := prGrains(m, n)
	for iter := 1; iter <= opts.MaxIter; iter++ {
		if err := tr.Poll("gap: PageRank"); err != nil {
			ws.pr = prCall{}
			return nil, err
		}
		pr.rank, pr.next = rank, next
		// Per-vertex contributions and the dangling sum.
		dangling, _ := tr.Sweep(m, n, gContrib, &prContrib, (*contribSweep)(pr))
		pr.base = (1-opts.Damping)*inv + opts.Damping*dangling*inv

		// Pull phase.
		tr.Sweep(m, n, gPull, &prPull, (*pullSweep)(pr))

		// L1 convergence test.
		l1, _ := tr.Sweep(m, n, gL1, &prL1, (*l1Sweep)(pr))

		rank, next = next, rank
		res.Iterations = iter
		if l1 < opts.Epsilon {
			break
		}
	}
	ws.pr = prCall{}
	res.Rank = traverse.Settled(res.Rank, rank)
	return res, nil
}

// prCall is what one PageRank iteration's sweeps read: the rank vector
// and its successor (swapped every iteration), the contributions, the
// out-degrees, the in-rows and the constants of the pull.
type prCall struct {
	rank, next, contrib []float64
	outDeg              []int64
	in                  traverse.Rows
	base, damping       float64
}

// PageRank's three sweep bodies, views of the iteration's record.
type contribSweep prCall
type pullSweep prCall
type l1Sweep prCall

// Sweep is one chunk of the contribution pass: its share of the
// dangling mass, and rank/degree for every other vertex.
func (pr *contribSweep) Sweep(c *traverse.Chunk, lo, hi int) {
	rank, outDeg, contrib := pr.rank, pr.outDeg, pr.contrib
	p := 0.0
	for v := lo; v < hi; v++ {
		if outDeg[v] == 0 {
			p += rank[v]
		} else {
			contrib[v] = rank[v] / float64(outDeg[v])
		}
	}
	c.Sum = p
}

// Sweep gathers one chunk's new ranks along its in-rows.
func (pr *pullSweep) Sweep(c *traverse.Chunk, lo, hi int) {
	contrib, next, in, base, damping := pr.contrib, pr.next, pr.in, pr.base, pr.damping
	for v := lo; v < hi; v++ {
		sum := 0.0
		for _, u := range c.Row(in, v) {
			sum += contrib[u]
		}
		next[v] = base + damping*sum
	}
}

// Sweep is one chunk of the convergence test.
func (pr *l1Sweep) Sweep(c *traverse.Chunk, lo, hi int) {
	next, rank := pr.next, pr.rank
	p := 0.0
	for v := lo; v < hi; v++ {
		p += math.Abs(next[v] - rank[v])
	}
	c.Sum = p
}

// prGrains resolves the chunk sizes of an iteration's three regions.
// The dangling and L1 sums fold per-chunk partials in chunk order, so
// the chunks decide their bits: IncrementalPageRank keeps an answer only
// for the chunks that cut it.
func prGrains(m *simmachine.Machine, n int) (gContrib, gPull, gL1 int) {
	return m.Grain(n, 2048, 1), m.Grain(n, 1024, 1), m.Grain(n, 4096, 1)
}

// WCC implements engines.Instance with Shiloach-Vishkin-style label
// propagation (the suite's connected components kernel): every vertex
// adopts the minimum label in its neighborhood — the shared hook step,
// one synchronous round, always over the raw rows — then a
// pointer-jumping pass sends every label to the root of its chain,
// until a round lowers none.
func (inst *Instance) WCC(dst *engines.WCCResult) (*engines.WCCResult, error) {
	inst.BuildStructure()
	n := inst.n
	res := traverse.Result(dst)
	// comp is dst's; the other of the pair is kept.
	res.Component = traverse.Resized(res.Component, n)
	inst.ws.wccSpare = traverse.Resized(inst.ws.wccSpare, n)
	comp, next := res.Component, inst.ws.wccSpare
	for i := range comp {
		comp[i] = graph.VID(i)
	}
	var in traverse.Rows
	if inst.in != inst.out {
		in = inst.in
	}
	jump := &inst.ws.jump
	for {
		if err := inst.trav.Poll("gap: WCC"); err != nil {
			return nil, err
		}
		changed := inst.trav.Hook(inst.m, 1024, &ccHook, inst.out, in, comp, next)
		comp, next = next, comp
		// Pointer jumping: comp[v] = comp[comp[v]] until stable. In
		// place, but every schedule leaves each v at its chain's root.
		jump.comp = comp
		inst.trav.Sweep(inst.m, n, 2048, &ccJump, jump)
		jump.comp = nil
		if changed == 0 {
			break
		}
	}
	res.Component = traverse.Settled(res.Component, comp)
	return res, nil
}

// jumpCall is what one pointer-jumping sweep reads: the labels it jumps.
type jumpCall struct {
	comp []graph.VID
}

// Sweep sends one chunk's labels to the roots of their chains.
func (j *jumpCall) Sweep(_ *traverse.Chunk, lo, hi int) {
	comp := j.comp
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
}
