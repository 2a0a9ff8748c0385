package graphbig

import (
	"math"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/traverse"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// PageRank implements engines.Instance: edge-wise accumulation into
// float32 vertex properties — System G stores single-precision rank
// properties, so the paper's ε = 6e-8 stopping threshold sits at
// float32's precision floor and GraphBIG needs more iterations than
// the float64 engines to get under it. The accumulation gathers along
// in-edges (each vertex folds its own property in adjacency order), so
// the per-edge lock traffic System G pays is charged per edge while
// the float32 sums stay bit-identical across runs and worker counts.
func (inst *Instance) PageRank(opts engines.PROpts, dst *engines.PRResult) (*engines.PRResult, error) {
	opts = opts.Normalize()
	n := inst.n
	res := traverse.Result(dst)
	res.Rank, res.Iterations = traverse.Resized(res.Rank, n), 0
	if n == 0 {
		return res, nil
	}
	inv := float32(1.0 / float64(n))
	inst.rank[0], inst.rank[1] = traverse.Resized(inst.rank[0], n), traverse.Resized(inst.rank[1], n)
	pr := &inst.pr
	*pr = prCall{vertices: inst.vertices, rank: inst.rank[0], next: inst.rank[1], in: inst.inRows(), damping: float32(opts.Damping)}
	if pr.in == nil {
		pr.in = &inst.vertices // undirected: out is the in-adjacency too
	}
	for i := range pr.rank {
		pr.rank[i] = inv
	}
	m, tr := inst.m, &inst.trav
	gRed := m.Grain(n, 4096, 1)
	gGather := m.Grain(n, 512, 1)
	for iter := 1; iter <= opts.MaxIter; iter++ {
		dangling, _ := tr.Sweep(m, n, gRed, &prDangling, (*danglingSweep)(pr))
		pr.base = float32((1-opts.Damping)/float64(n) + opts.Damping*dangling/float64(n))
		tr.Sweep(m, n, gGather, &prGather, (*gatherSweep)(pr))
		l1, _ := tr.Sweep(m, n, gRed, &prL1, (*l1Sweep)(pr))

		pr.rank, pr.next = pr.next, pr.rank
		res.Iterations = iter
		if l1 < opts.Epsilon {
			break
		}
	}
	for v := 0; v < n; v++ {
		res.Rank[v] = float64(pr.rank[v])
	}
	*pr = prCall{}
	return res, nil
}

// prCall is what a PageRank iteration's bodies read: the vertex table,
// the ranks, the in-adjacency and the constants of the gather.
type prCall struct {
	vertices      propertyGraph
	rank, next    []float32
	in            traverse.Rows
	base, damping float32
}

// PageRank's three sweep bodies, views of the iteration's record.
type danglingSweep prCall
type gatherSweep prCall
type l1Sweep prCall

// Sweep is one chunk of the dangling mass: a float64 reduction of
// float32 properties, folded in chunk order for determinism.
func (pr *danglingSweep) Sweep(c *traverse.Chunk, lo, hi int) {
	rank := pr.rank
	local := 0.0
	for v := lo; v < hi; v++ {
		if len(pr.vertices[v].out) == 0 {
			local += float64(rank[v])
		}
	}
	c.Sum = local
}

// Sweep is one chunk of the gather phase: it folds in-neighbor shares
// in float32, per-vertex property updates under System G's per-edge
// lock cost.
func (pr *gatherSweep) Sweep(c *traverse.Chunk, lo, hi int) {
	rank, next := pr.rank, pr.next
	for v := lo; v < hi; v++ {
		var sum float32
		for _, u := range c.Row(pr.in, v) {
			sum += rank[u] / float32(len(pr.vertices[u].out))
		}
		next[v] = pr.base + pr.damping*sum
	}
}

// Sweep is one chunk of the L1 change over float32 properties,
// accumulated in float64.
func (pr *l1Sweep) Sweep(c *traverse.Chunk, lo, hi int) {
	rank, next := pr.rank, pr.next
	local := 0.0
	for v := lo; v < hi; v++ {
		local += math.Abs(float64(next[v]) - float64(rank[v]))
	}
	c.Sum = local
}

// CDLP implements engines.Instance: synchronous label propagation
// with per-vertex histogram maps (System G's property-map style) — the
// shared vote step.
func (inst *Instance) CDLP(maxIter int, dst *engines.CDLPResult) (*engines.CDLPResult, error) {
	n := inst.n
	res := traverse.Result(dst)
	// label is dst's; the other of the pair is kept.
	res.Label, res.Iterations = traverse.Resized(res.Label, n), 0
	inst.spare = traverse.Resized(inst.spare, n)
	label, next := res.Label, inst.spare
	for i := range label {
		label[i] = graph.VID(i)
	}
	for iter := 1; iter <= maxIter; iter++ {
		changed := inst.trav.Vote(inst.m, 256, &cdlpVote, &inst.vertices, inst.inRows(), label, next)
		label, next = next, label
		res.Iterations = iter
		if changed == 0 {
			break
		}
	}
	res.Label = traverse.Settled(res.Label, label)
	return res, nil
}

// LCC implements engines.Instance: per-vertex hash-set membership
// tests over the distinct in∪out neighborhood.
func (inst *Instance) LCC(dst *engines.LCCResult) (*engines.LCCResult, error) {
	n := inst.n
	res := traverse.Result(dst)
	res.Coeff = traverse.Resized(res.Coeff, n)
	lc := &inst.lcc
	*lc = lccCall{vertices: inst.vertices, coeff: res.Coeff, sets: inst.trav.Tallies(inst.m, n), merged: inst.trav.Neighborhoods(inst.m)}
	inst.m.For(n, 64, simmachine.Dynamic, lc)
	*lc = lccCall{}
	return res, nil
}

// lccCall is what LCC's chunks read.
type lccCall struct {
	vertices propertyGraph
	sets     []traverse.Tally
	merged   [][]graph.VID
	coeff    []float64
}

// Chunk computes one chunk's coefficients.
func (lc *lccCall) Chunk(lo, hi, _, worker int, w *simmachine.W) {
	set, coeff := &lc.sets[worker], lc.coeff
	var checks int64
	for v := lo; v < hi; v++ {
		vp := &lc.vertices[v]
		nbrs := engines.Neighborhood(&lc.merged[worker], vp.out, vp.in, graph.VID(v))
		d := len(nbrs)
		if d < 2 {
			coeff[v] = 0
			continue
		}
		for _, u := range nbrs {
			set.Add(u)
		}
		links := 0
		for _, u := range nbrs {
			for _, x := range lc.vertices[u].out {
				checks++
				if set.Has(x) {
					links++
				}
			}
		}
		set.Reset()
		coeff[v] = float64(links) / float64(d*(d-1))
	}
	w.Charge(costLCCCheck.Scale(float64(checks)))
	w.Charge(costPropTouch.Scale(float64(hi - lo)))
}

// WCC implements engines.Instance: plain min-label propagation (no
// pointer jumping) until quiescent — the shared hook step, one
// synchronous round at a time.
func (inst *Instance) WCC(dst *engines.WCCResult) (*engines.WCCResult, error) {
	res := traverse.Result(dst)
	// comp is dst's; the other of the pair is kept. A round that lowers
	// nothing leaves next equal to comp.
	res.Component = traverse.Resized(res.Component, inst.n)
	inst.spare = traverse.Resized(inst.spare, inst.n)
	comp, next := res.Component, inst.spare
	for i := range comp {
		comp[i] = graph.VID(i)
	}
	for inst.trav.Hook(inst.m, 1024, &wccHook, &inst.vertices, inst.inRows(), comp, next) != 0 {
		comp, next = next, comp
	}
	res.Component = traverse.Settled(res.Component, comp)
	return res, nil
}
