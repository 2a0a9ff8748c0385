package graphmat

import (
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/traverse"
	"github.com/hpcl-repro/epg/internal/graph"
)

// CDLP implements engines.Instance: synchronous label propagation as
// a histogram-semiring SpMV. For directed graphs both the in- and
// out-matrices contribute messages (LDBC semantics).
func (inst *Instance) CDLP(maxIter int, dst *engines.CDLPResult) (*engines.CDLPResult, error) {
	inst.BuildStructure()
	n := inst.n
	res := traverse.Result(dst)
	// label is dst's; the other of the pair is kept.
	res.Label, res.Iterations = traverse.Resized(res.Label, n), 0
	inst.spare = traverse.Resized(inst.spare, n)
	label, next := res.Label, inst.spare
	for i := range label {
		label[i] = graph.VID(i)
	}
	tallies := inst.trav.Tallies(inst.m, n) // the histogram semiring's accumulators
	// count adds the labels of adj to t (the messages of one stored
	// row) and returns how many; vote picks v's label from them, into
	// next, which no sweep reads.
	count := func(t *traverse.Tally, adj []graph.VID) int64 {
		for _, u := range adj {
			t.Add(label[u])
		}
		return int64(len(adj))
	}
	vote := func(t *traverse.Tally, v graph.VID) int64 {
		if nl := t.Pick(label[v]); nl != label[v] {
			next[v] = nl
			return 1
		}
		return 0
	}
	for iter := 1; iter <= maxIter; iter++ {
		copy(next, label)
		_, changed := inst.spmv(inst.inRows, func(c *traverse.Chunk, rows []graph.VID) {
			t := &tallies[c.Worker()]
			var nz, moved int64
			for _, v := range rows {
				nz += count(t, c.Row(inst.in, int(v)))
				if inst.directed {
					nz += count(t, c.Row(inst.out, int(v)))
				}
				moved += vote(t, v)
			}
			c.Work, c.Changed = nz, moved
		})
		// Directed graphs: vertices with only out-edges never appear
		// as in-rows; give them their histogram too.
		if inst.directed {
			_, outOnly := inst.spmv(inst.outRows, func(c *traverse.Chunk, rows []graph.VID) {
				t := &tallies[c.Worker()]
				var moved int64
				for _, v := range rows {
					if inst.in.Degree(v) != 0 { // handled as an in-row
						continue
					}
					count(t, c.Row(inst.out, int(v)))
					moved += vote(t, v)
				}
				c.Changed = moved
			})
			changed += outOnly
		}
		inst.denseSweep(1)
		label, next = next, label
		res.Iterations = iter
		if changed == 0 {
			break
		}
	}
	res.Label = traverse.Settled(res.Label, label)
	return res, nil
}

// WCC implements engines.Instance: min-semiring SpMV iterated until
// quiescent. For directed graphs the min gathers over both
// directions (weak connectivity).
func (inst *Instance) WCC(dst *engines.WCCResult) (*engines.WCCResult, error) {
	inst.BuildStructure()
	n := inst.n
	res := traverse.Result(dst)
	res.Component = traverse.Resized(res.Component, n)
	inst.spare = traverse.Resized(inst.spare, n) // as in CDLP
	comp, next := res.Component, inst.spare
	for i := range comp {
		comp[i] = graph.VID(i)
	}
	// sweep lowers next[v] to the smallest comp label over v's row of
	// mat; comp is the previous round's, so the round is Jacobi.
	sweep := func(mat *graph.CSR, rows []graph.VID) int64 {
		_, changed := inst.spmv(rows, func(c *traverse.Chunk, rows []graph.VID) {
			var lowered int64
			for _, v := range rows {
				min := next[v]
				for _, u := range c.Row(mat, int(v)) {
					if comp[u] < min {
						min = comp[u]
					}
				}
				if min < next[v] {
					next[v] = min
					lowered++
				}
			}
			c.Changed = lowered
		})
		return changed
	}
	for {
		copy(next, comp)
		changed := sweep(inst.in, inst.inRows)
		if inst.directed {
			changed += sweep(inst.out, inst.outRows)
		}
		inst.denseSweep(2)
		comp, next = next, comp
		if changed == 0 {
			break
		}
	}
	res.Component = traverse.Settled(res.Component, comp)
	return res, nil
}

// LCC implements engines.Instance: GraphMat's Graphalytics LCC maps
// to masked sparse matrix products; here the same counts come from
// sorted-adjacency intersections — the shared link-count step — with
// SpMV-grade per-check costs (the paper's Table I shows LCC dominating
// every system's runtime on the dense Dota-League graph).
func (inst *Instance) LCC(dst *engines.LCCResult) (*engines.LCCResult, error) {
	inst.BuildStructure()
	res := traverse.Result(dst)
	res.Coeff = traverse.Resized(res.Coeff, inst.n)
	var in *graph.CSR // LinkCount merges in-rows only when they differ
	if inst.directed {
		in = inst.in
	}
	inst.trav.LinkCount(inst.m, 64, &lccLinks, inst.out, in, res.Coeff)
	return res, nil
}
