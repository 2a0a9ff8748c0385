package gap

import (
	"slices"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/traverse"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// Streaming-mutation cost constants. The maintenance rates reuse the
// kernels' per-item magnitudes (a recomputed pull row costs what the
// kernel charges a pull row), so incremental-vs-recompute comparisons
// in the stream study measure work saved, not a different price list.
var (
	// Batch replay: one op is a hash probe plus a binary search in the
	// current row.
	costMutOp = simmachine.Cost{Cycles: 40, Bytes: 32}
	// Row rebuild: merging one entry of a dirty row vs bulk-copying
	// one entry of a clean row.
	costMutRowEdge  = simmachine.Cost{Cycles: 6, Bytes: 20}
	costMutCopyEdge = simmachine.Cost{Cycles: 1, Bytes: 8}
	// WCC repair: classifying one vertex against the affected-label
	// set, one DSU union over an inserted edge, and the final
	// label-resolution pass per vertex.
	costCCSVertex = simmachine.Cost{Cycles: 4, Bytes: 16}
	costCCUnion   = simmachine.Cost{Cycles: 20, Bytes: 24}
	costCCRelabel = simmachine.Cost{Cycles: 2, Bytes: 16}
)

// streamState is what the incremental maintainers answer from: each
// one's baseline result and the epoch that result describes. A maintain
// learns what changed by diffing that epoch's rows with the current ones
// (graph.Diff), so what it computes and charges is a function of
// (baseline epoch, current epoch), however many Mutates lie between.
// Allocated lazily — plain static runs never pay for it.
type streamState struct {
	// prRank is the rank vector the last IncrementalPageRank handed out
	// (the result slice itself: callers only read it), after prIters
	// iterations under prOpts and the chunk sizes prGrains, over the
	// in-rows prIn.
	prRank   []float64
	prIters  int
	prOpts   engines.PROpts
	prGrains [3]int
	prIn     *graph.CSR
	// wccLab is the component labeling of the last IncrementalWCC, over
	// the out-rows wccOut.
	wccLab []graph.VID
	wccOut *graph.CSR
}

func (inst *Instance) streamState() *streamState {
	if inst.stream == nil {
		inst.stream = &streamState{}
	}
	return inst.stream
}

// Graph implements engines.Streamer: the graph of the instance's
// current epoch, read-only. Mutate builds the next graph beside it and
// never writes it, so it may be held, and bound by other instances (the
// serving daemon's executors bind the one its maintainer published),
// for as long as anything holds it.
func (inst *Instance) Graph() *graph.Simple { return inst.g }

// Mutate implements engines.Streamer: it advances the instance's graph
// by the batch (graph.Simple.Apply: the out-rows by the batch and, for
// directed graphs, the in-rows by the reversed batch), takes the new
// graph's compressed siblings when they are live, swaps in the new
// epoch and charges the apply. The new epoch is an overlay
// (graph.CSR.Apply): fresh storage for the rows the batch dirtied, every
// other row shared with the previous epoch, compacted into a flat CSR
// once the patch outgrows its bound. The charges still price a whole
// rebuild — the replay serially per op, the row rebuild as a uniform
// parallel merge over touched entries plus a bulk copy of the clean
// ones, and under Compress a re-encode of every row — so the modeled
// clock does not see the overlay. It records nothing for the
// maintainers: each diffs its own baseline epoch against the current one
// when it runs.
func (inst *Instance) Mutate(batch graph.Batch) (*engines.MutationReport, error) {
	inst.BuildStructure()
	next, res, resIn, err := inst.g.Apply(batch)
	if err != nil {
		return nil, err
	}
	edgesTouched, copied := res.EdgesTouched, res.CopiedEdges
	if resIn != nil {
		edgesTouched += resIn.EdgesTouched
		copied += resIn.CopiedEdges
	}
	inst.use(next)
	inst.mEdges = inst.out.NumEdges()

	inst.m.ChargeSerial(costMutOp.Scale(float64(len(batch))))
	inst.m.ChargeUniform(int(edgesTouched), 4096, simmachine.Dynamic, costMutRowEdge)
	inst.m.ChargeUniform(int(copied), 4096, simmachine.Dynamic, costMutCopyEdge)
	if inst.opts.Compress {
		// The siblings are the new graph's, encoded whole; re-encoding
		// the dirty rows only is a named follow-up.
		inst.m.ChargeUniform(int(inst.out.NumEdges()), 4096, simmachine.Dynamic, costCompressEdge)
		if next.Directed {
			inst.m.ChargeUniform(int(inst.in.NumEdges()), 4096, simmachine.Dynamic, costCompressEdge)
		}
	}

	return &engines.MutationReport{
		Stats:        res.Stats,
		DirtyRows:    len(res.DirtyRows),
		EdgesTouched: edgesTouched,
	}, nil
}

// IncrementalPageRank implements engines.Streamer. It keeps the answer of
// its last run, not how the run got there: when the in-rows have the
// membership of the epoch that answer describes — nothing mutated, a
// refresh, a reweigh, or a batch and its undo — it returns a copy of that
// rank vector and charges nothing; otherwise it runs the PageRank kernel,
// so the result is bit-equal to a cold run because it is one. The in-rows
// alone decide: every out-entry u→v is the in-entry v←u, on an undirected
// graph in the same rows. A kept answer also needs the options and the
// chunk geometry that cut its folds. A cancelled run returns before it
// touches the baseline.
func (inst *Instance) IncrementalPageRank(opts engines.PROpts) (*engines.PRResult, error) {
	inst.BuildStructure()
	opts = opts.Normalize()
	st := inst.streamState()
	var grains [3]int
	grains[0], grains[1], grains[2] = prGrains(inst.m, inst.n)
	if st.prRank != nil && st.prOpts == opts && st.prGrains == grains && !membershipChanged(st.prIn, inst.in) {
		st.prIn = inst.in
		return &engines.PRResult{Rank: slices.Clone(st.prRank), Iterations: st.prIters}, nil
	}
	res, err := inst.PageRank(opts, nil)
	if err != nil {
		return nil, err
	}
	st.prRank, st.prIters, st.prOpts, st.prGrains, st.prIn = res.Rank, res.Iterations, opts, grains, inst.in
	return res, nil
}

// membershipChanged reports whether any row of cur holds an entry that
// the same row of base does not, or the reverse; a reweigh is no change.
func membershipChanged(base, cur *graph.CSR) bool {
	for c := range graph.Diff(base, cur) {
		if c.Kind != graph.Reweighed {
			return true
		}
	}
	return false
}

// IncrementalWCC implements engines.Streamer. It diffs the out-rows of
// its baseline's epoch with the current ones. Entries that came union
// component labels through a min-rooted DSU; entries that went
// recompute the affected components — the full baseline components of
// every removed entry's endpoints — by serial BFS over the current
// adjacency restricted to that set, from ascending roots (so each piece
// is labeled by its minimum vertex, the kernel's canonical form). No
// baseline edge crosses the affected set's boundary (components are
// closed), and new edges that do are handled by the DSU pass, so the
// result is exactly the kernel's labeling of the current graph. The
// baseline is patched in place, so no error exit follows the cancel
// poll; only the published copy is allocated.
func (inst *Instance) IncrementalWCC() (*engines.WCCResult, error) {
	inst.BuildStructure()
	st := inst.streamState()
	if st.wccLab == nil {
		res, err := inst.WCC(nil)
		if err != nil {
			return nil, err
		}
		st.wccLab, st.wccOut = append([]graph.VID(nil), res.Component...), inst.out
		return res, nil
	}
	// The out-entries that came and went since the baseline (both
	// orientations of an undirected edge); a reweigh moves no label.
	ws := &inst.ws
	came, gone := ws.wccCame[:0], ws.wccGone[:0]
	for c := range graph.Diff(st.wccOut, inst.out) {
		switch c.Kind {
		case graph.Came:
			came = append(came, c)
		case graph.Gone:
			gone = append(gone, c)
		}
	}
	ws.wccCame, ws.wccGone = came, gone
	if len(came) == 0 && len(gone) == 0 {
		st.wccOut = inst.out
		return &engines.WCCResult{Component: append([]graph.VID(nil), st.wccLab...)}, nil
	}
	if err := inst.trav.Poll("gap: IncrementalWCC"); err != nil {
		return nil, err
	}

	n := inst.n
	lab := st.wccLab
	directed := inst.in != inst.out

	if len(gone) > 0 {
		// Affected components: baseline labels of every removed
		// edge's endpoints; S is their full vertex set, marked todo
		// until the BFS below reaches it.
		const todo, done = 1, 2
		if ws.wccAffected == nil {
			ws.wccAffected = make(map[graph.VID]struct{})
		}
		affected := ws.wccAffected
		clear(affected)
		for _, e := range gone {
			affected[lab[e.Src]] = struct{}{}
			affected[lab[e.Dst]] = struct{}{}
		}
		ws.wccMark = traverse.Resized(ws.wccMark, n)
		clear(ws.wccMark)
		mark, S := ws.wccMark, ws.wccSet[:0]
		for v := 0; v < n; v++ {
			if _, ok := affected[lab[v]]; ok {
				mark[v] = todo
				S = append(S, graph.VID(v))
			}
		}
		inst.m.ChargeUniform(n, 2048, simmachine.Dynamic, costCCRelabel)

		// Serial BFS over post-batch adjacency restricted to S, roots
		// ascending: the first unvisited vertex of each piece is its
		// minimum, so labels come out canonical.
		var bfsEdges int64
		q := ws.wccQueue
		sides := []*graph.CSR{inst.out, inst.in}
		if !directed {
			sides = sides[:1]
		}
		for _, root := range S {
			if mark[root] == done {
				continue
			}
			mark[root] = done
			lab[root] = root
			q = append(q[:0], root)
			for head := 0; head < len(q); head++ {
				v := q[head]
				for _, c := range sides {
					row, _ := c.Row(v, &ws.row)
					bfsEdges += int64(len(row))
					for _, u := range row {
						if mark[u] == todo {
							mark[u] = done
							lab[u] = root
							q = append(q, u)
						}
					}
				}
			}
		}
		ws.wccSet, ws.wccQueue = S, q
		inst.m.ChargeSerial(costCCSVertex.Scale(float64(len(S))))
		inst.m.ChargeSerial(costCCEdge.Scale(float64(bfsEdges)))
	}

	// Union over inserted edges: a min-rooted DSU on component labels,
	// so merged components keep the global minimum as representative.
	if ws.wccParent == nil {
		ws.wccParent = make(map[graph.VID]graph.VID)
	}
	parent := ws.wccParent
	clear(parent)
	find := func(x graph.VID) graph.VID {
		root := x
		for {
			p, ok := parent[root]
			if !ok {
				break
			}
			root = p
		}
		for x != root {
			p := parent[x]
			parent[x] = root
			x = p
		}
		return root
	}
	for _, e := range came {
		a, b := find(lab[e.Src]), find(lab[e.Dst])
		if a == b {
			continue
		}
		if a < b {
			parent[b] = a
		} else {
			parent[a] = b
		}
	}
	inst.m.ChargeSerial(costCCUnion.Scale(float64(len(came))))

	comp := make([]graph.VID, n)
	for v := 0; v < n; v++ {
		lab[v] = find(lab[v])
		comp[v] = lab[v]
	}
	inst.m.ChargeUniform(n, 2048, simmachine.Dynamic, costCCRelabel)

	st.wccOut = inst.out
	return &engines.WCCResult{Component: comp}, nil
}
