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
	cc := &inst.cdlp
	*cc = cdlpCall{in: inst.in, out: inst.out, directed: inst.directed, tallies: inst.trav.Tallies(inst.m, n)}
	for iter := 1; iter <= maxIter; iter++ {
		copy(next, label)
		cc.label, cc.next = label, next
		_, changed := inst.spmv(inst.in, inst.inRows, cc)
		// Directed graphs: vertices with only out-edges never appear
		// as in-rows; give them their histogram too.
		if inst.directed {
			_, outOnly := inst.spmv(inst.out, inst.outRows, (*cdlpOutRows)(cc))
			changed += outOnly
		}
		inst.denseSweep(1)
		label, next = next, label
		res.Iterations = iter
		if changed == 0 {
			break
		}
	}
	*cc = cdlpCall{}
	res.Label = traverse.Settled(res.Label, label)
	return res, nil
}

// cdlpCall is what a CDLP round's SpMVs read; its votes go to next.
type cdlpCall struct {
	in, out     *graph.CSR
	directed    bool
	tallies     []traverse.Tally
	label, next []graph.VID
}

// cdlpOutRows is CDLP's second SpMV body, a view of the round's record.
type cdlpOutRows cdlpCall

// Rows gathers the histogram of each stored in-row, and of its out-row
// when the graph is directed, and votes.
func (cc *cdlpCall) Rows(c *traverse.Chunk, _ *graph.CSR, rows []graph.VID) {
	t := &cc.tallies[c.Worker()]
	var nz, moved int64
	for _, v := range rows {
		nz += t.Count(cc.label, c.Row(cc.in, int(v)))
		if cc.directed {
			nz += t.Count(cc.label, c.Row(cc.out, int(v)))
		}
		moved += t.Vote(cc.label, cc.next, v)
	}
	c.Work, c.Changed = nz, moved
}

// Rows gives the stored out-rows of vertices without an in-row their
// histogram and vote.
func (cc *cdlpOutRows) Rows(c *traverse.Chunk, _ *graph.CSR, rows []graph.VID) {
	t := &cc.tallies[c.Worker()]
	var moved int64
	for _, v := range rows {
		if cc.in.Degree(v) != 0 { // handled as an in-row
			continue
		}
		t.Count(cc.label, c.Row(cc.out, int(v)))
		moved += t.Vote(cc.label, cc.next, v)
	}
	c.Changed = moved
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
	wc := &inst.wcc
	for {
		copy(next, comp)
		wc.comp, wc.next = comp, next
		_, changed := inst.spmv(inst.in, inst.inRows, wc)
		if inst.directed {
			_, outChanged := inst.spmv(inst.out, inst.outRows, wc)
			changed += outChanged
		}
		inst.denseSweep(2)
		comp, next = next, comp
		if changed == 0 {
			break
		}
	}
	*wc = wccCall{}
	res.Component = traverse.Settled(res.Component, comp)
	return res, nil
}

// wccCall is what a WCC round's SpMVs read.
type wccCall struct {
	comp, next []graph.VID
}

// Rows lowers next[v] to the smallest comp label over v's row of mat;
// comp is the previous round's, so the round is Jacobi.
func (wc *wccCall) Rows(c *traverse.Chunk, mat *graph.CSR, rows []graph.VID) {
	comp, next := wc.comp, wc.next
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
