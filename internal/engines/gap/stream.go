package gap

import (
	"fmt"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/traverse"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/parallel"
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

// streamState is what the incremental maintainers patch against: each
// one's baseline result and the epoch that result describes. A maintain
// learns what changed by diffing that epoch's rows with the current ones
// (graph.Diff), so what it computes and charges is a function of
// (baseline epoch, current epoch), however many Mutates lie between.
// Allocated lazily — plain static runs never pay for it.
type streamState struct {
	// prTraj is the recorded per-iteration PageRank trajectory of the
	// last (in)cremental run, over the rows prOut / prIn.
	prTraj      *prTrajectory
	prOut, prIn *graph.CSR
	pr          prScratch
	// wccLab is the component labeling of the last IncrementalWCC, over
	// the out-rows wccOut.
	wccLab []graph.VID
	wccOut *graph.CSR
}

// prScratch is IncrementalPageRank's working set beside the trajectory
// it patches, kept so that a replay allocates only the vector it
// publishes (and a rank vector per iteration it outgrows its baseline).
type prScratch struct {
	// start is the uniform rank_0; spare is the vector a full sweep
	// writes before trading it for the cached rank; contrib and outDeg
	// are the iteration's rank/degree and the post-batch degrees.
	start, spare, contrib []float64
	outDeg                []int64
	// changed ping-pongs between the vertices that moved in iteration
	// t-1 and in t; degDirty and inRows are the vertices whose out-degree
	// and in-rows whose membership differ from the baseline's; rows and
	// rowMark the restricted sweep's row set; redo patchedFold's.
	changed          [2][]graph.VID
	degDirty, inRows []graph.VID
	rows             []graph.VID
	rowMark, redo    []bool
}

func (inst *Instance) streamState() *streamState {
	if inst.stream == nil {
		inst.stream = &streamState{}
	}
	return inst.stream
}

// Epoch is one generation of an instance's adjacency: the raw rows and,
// when the engine compresses, their compressed siblings. Mutate builds
// the next one and never writes a previous one, so an Epoch may be read,
// and bound by other instances, for as long as anything holds it.
type Epoch struct {
	out, in   *graph.CSR
	cout, cin *graph.CompressedCSR
}

// Out returns the epoch's out-adjacency.
func (e Epoch) Out() *graph.CSR { return e.out }

// In returns the epoch's in-adjacency: Out itself on an undirected
// graph, its weighted transpose on a directed one.
func (e Epoch) In() *graph.CSR { return e.in }

// Epoch returns the adjacency the instance currently runs on.
func (inst *Instance) Epoch() Epoch {
	inst.BuildStructure()
	return Epoch{out: inst.out, in: inst.in, cout: inst.cout, cin: inst.cin}
}

// BindEpoch makes the kernels of inst run on e, an epoch of another
// instance of the same engine configuration over the same vertex set (the
// serving daemon's executors bind the epoch its maintainer published). It
// charges nothing and stands in for BuildStructure — construction was
// paid where e was built — and drops any incremental baselines, which
// describe the graph being left.
func (inst *Instance) BindEpoch(e Epoch) {
	inst.out, inst.in, inst.cout, inst.cin = e.out, e.in, e.cout, e.cin
	inst.n, inst.mEdges, inst.built = e.out.NumVertices, e.out.NumEdges(), true
	inst.stream = nil
}

// Mutate implements engines.Streamer: it applies the batch to the out-
// (and, for directed graphs, in-) adjacency, recompresses when the
// compressed siblings are live, swaps in the new epoch and charges the
// apply. The new epoch is an overlay (graph.CSR.Apply): fresh storage
// for the rows the batch dirtied, every other row shared with the
// previous epoch, compacted into a flat CSR once the patch outgrows its
// bound. The charges still price a whole rebuild — the replay serially
// per op, the row rebuild as a uniform parallel merge over touched
// entries plus a bulk copy of the clean ones — so the modeled clock
// does not see the overlay. It records nothing for the maintainers:
// each diffs its own baseline epoch against the current one when it
// runs.
func (inst *Instance) Mutate(batch graph.Batch) (*engines.MutationReport, error) {
	inst.BuildStructure()
	directed := inst.in != inst.out

	out, res, err := inst.out.Apply(batch, directed)
	if err != nil {
		return nil, err
	}
	edgesTouched, copied := res.EdgesTouched, res.CopiedEdges
	in := out
	if directed {
		var resIn *graph.ApplyResult
		in, resIn, err = inst.in.Apply(batch.Reversed(), true)
		if err != nil {
			// The reversed batch validates identically to the forward
			// one, so this is unreachable; guard anyway rather than
			// tear the pair.
			return nil, fmt.Errorf("gap: in-adjacency apply diverged: %w", err)
		}
		edgesTouched += resIn.EdgesTouched
		copied += resIn.CopiedEdges
	}

	// Both applies succeeded: swap epochs.
	inst.out, inst.in, inst.mEdges = out, in, out.NumEdges()

	inst.m.ChargeSerial(costMutOp.Scale(float64(len(batch))))
	inst.m.ChargeUniform(int(edgesTouched), 4096, simmachine.Dynamic, costMutRowEdge)
	inst.m.ChargeUniform(int(copied), 4096, simmachine.Dynamic, costMutCopyEdge)

	if inst.opts.Compress {
		// The compressed siblings are rebuilt whole; mutation-aware
		// re-encoding of dirty rows only is a named follow-up.
		inst.m.ChargeUniform(int(inst.out.NumEdges()), 4096, simmachine.Dynamic, costCompressEdge)
		inst.cout = graph.CompressCSR(inst.out, 0)
		if directed {
			inst.m.ChargeUniform(int(inst.in.NumEdges()), 4096, simmachine.Dynamic, costCompressEdge)
			inst.cin = graph.CompressCSR(inst.in, 0)
		} else {
			inst.cin = inst.cout
		}
	}

	return &engines.MutationReport{
		Stats:        res.Stats,
		DirtyRows:    len(res.DirtyRows),
		EdgesTouched: edgesTouched,
	}, nil
}

// prIter is one recorded PageRank iteration: the rank vector after the
// swap plus every intermediate the kernel folds — per-chunk dangling
// and L1 partials and their chunk-ordered sums — so a replay can patch
// any subset of chunks and still reproduce the fold bit for bit.
type prIter struct {
	rank      []float64
	dangParts []float64
	dangling  float64
	base      float64
	l1Parts   []float64
	l1        float64
}

// prTrajectory is the memoized trajectory of one PageRank run.
type prTrajectory struct {
	opts  engines.PROpts
	iters []prIter
}

// record snapshots one iteration from inside the kernel (pr.go calls
// it when recording is armed). The partials are already the kernel's
// copies; the rank vector is copied here, since the kernel reuses it.
func (t *prTrajectory) record(rank, dangParts, l1Parts []float64, dangling, base, l1 float64) {
	t.iters = append(t.iters, prIter{
		rank:      append([]float64(nil), rank...),
		dangParts: dangParts,
		dangling:  dangling,
		base:      base,
		l1Parts:   l1Parts,
		l1:        l1,
	})
}

// recordedPageRank runs the full kernel with trajectory recording
// armed and installs the result as the new baseline. Recording only
// copies state the kernel already computed, so the modeled cost is
// exactly the full run's.
func (inst *Instance) recordedPageRank(opts engines.PROpts) (*engines.PRResult, error) {
	st := inst.streamState()
	traj := &prTrajectory{opts: opts}
	inst.prRec = traj
	res, err := inst.PageRank(opts)
	inst.prRec = nil
	if err != nil {
		return nil, err
	}
	st.prTraj, st.prOut, st.prIn = traj, inst.out, inst.in
	return res, nil
}

// IncrementalPageRank implements engines.Streamer. It re-converges
// from the recorded trajectory of the previous run with sweeps
// restricted to the dirty frontier, seeded by the vertices whose
// out-degree and the in-rows whose membership differ between the
// trajectory's epoch and the current one: per iteration it recomputes
// only the dangling-partial chunks, pull rows, and L1 chunks whose
// inputs changed, splicing cached partials everywhere else and folding
// in chunk order — so every dangling sum, base value, rank entry, L1
// norm, and convergence decision is bit-equal to a cold PageRank on
// the current graph. Without a baseline (first call, or changed
// opts/grain geometry) it runs the recording full kernel.
//
// The trajectory is patched in place and is the new baseline: iteration
// t needs the cached rank_t only to compare against and, in the
// restricted sweep, to start from, and nothing reads the cached
// rank_{t-1} once the vertices that moved are listed. So the replay loop
// must have no way out but its end — the one error exit, the cancel
// poll, sits before the first write — or the next call would trust a
// baseline patched up to iteration t and stale after it.
func (inst *Instance) IncrementalPageRank(opts engines.PROpts) (*engines.PRResult, error) {
	inst.BuildStructure()
	opts = opts.Normalize()
	n := inst.n
	if n == 0 {
		return &engines.PRResult{}, nil
	}
	st := inst.streamState()
	gContrib, gPull, gL1 := prGrains(inst.m, n)

	// A baseline recorded under another grain geometry cut other chunks.
	traj := st.prTraj
	if traj == nil || traj.opts != opts || len(traj.iters) == 0 ||
		len(traj.iters[0].dangParts) != parallel.NumChunks(n, gContrib) || len(traj.iters[0].l1Parts) != parallel.NumChunks(n, gL1) {
		return inst.recordedPageRank(opts)
	}
	// degDirty: vertices whose contrib can differ from cache even with
	// an unchanged rank. inRows: rows whose in-neighborhood membership
	// changed, recomputed every iteration. A reweigh changes neither.
	ws := &st.pr
	ws.degDirty, ws.inRows = ws.degDirty[:0], ws.inRows[:0]
	for v := 0; st.prOut != inst.out && v < n; v++ {
		if st.prOut.Degree(graph.VID(v)) != inst.out.Degree(graph.VID(v)) {
			ws.degDirty = append(ws.degDirty, graph.VID(v))
		}
	}
	for c := range graph.Diff(st.prIn, inst.in) {
		if c.Kind != graph.Reweighed && (len(ws.inRows) == 0 || ws.inRows[len(ws.inRows)-1] != c.Src) {
			ws.inRows = append(ws.inRows, c.Src)
		}
	}
	if len(ws.degDirty) == 0 && len(ws.inRows) == 0 {
		// No structural drift since the baseline: the cached run IS
		// the current graph's run.
		st.prOut, st.prIn = inst.out, inst.in
		last := traj.iters[len(traj.iters)-1]
		return &engines.PRResult{
			Rank:       append([]float64(nil), last.rank...),
			Iterations: len(traj.iters),
		}, nil
	}

	if err := inst.trav.Poll("gap: IncrementalPageRank"); err != nil {
		return nil, err
	}

	inv := 1.0 / float64(n)
	ws.outDeg = traverse.Resized(ws.outDeg, n) // post-batch degrees
	outDeg := ws.outDeg
	for v := range outDeg {
		outDeg[v] = inst.out.Degree(graph.VID(v))
	}
	ws.rowMark = traverse.Resized(ws.rowMark, n)
	clear(ws.rowMark)

	// prev is the replay's rank_{t-1}, maintained bit-equal to the
	// cold post-batch run's by induction (both runs start uniform).
	if len(ws.start) != n {
		ws.start = make([]float64, n)
		for i := range ws.start {
			ws.start[i] = inv
		}
	}
	prev := ws.start
	// changed lists the vertices where prev differs from the cached
	// rank_{t-1}; empty at t=1.
	changed, newChanged := ws.changed[0][:0], ws.changed[1][:0]

	// pull is bitwise the kernel's per-vertex pull: rank/degree divided
	// once per vertex per iteration (a dangling vertex is nobody's
	// in-neighbor, so its slot is never read), summed in sorted adjacency
	// order.
	ws.contrib = traverse.Resized(ws.contrib, n)
	contrib := ws.contrib
	buf := &inst.ws.row
	pull := func(v graph.VID, base float64) float64 {
		sum := 0.0
		row, _ := inst.in.Row(v, buf)
		for _, u := range row {
			sum += contrib[u]
		}
		return base + opts.Damping*sum
	}

	iters := traj.iters
	iterations := 0
	for t := 1; t <= opts.MaxIter; t++ {
		// it is the cached iteration this one patches, an empty one past
		// the recorded horizon: the same code then runs as "every chunk
		// dirty, base moved", a full iteration in the kernel's chunk
		// partials and fold order at full kernel rates.
		cached := t <= len(iters)
		if !cached {
			iters = append(iters, prIter{})
		}
		it := &iters[t-1]

		// Dangling partials: chunks containing a changed-rank or
		// degree-dirty vertex recompute.
		was := it.dangling
		var dangVerts, l1Verts int
		it.dangParts, it.dangling, dangVerts = ws.patchedFold(n, gContrib, it.dangParts, func(lo, hi int) float64 {
			return danglingPartial(prev, outDeg, nil, lo, hi)
		}, changed, ws.degDirty)
		it.base = (1-opts.Damping)*inv + opts.Damping*it.dangling*inv
		inst.m.ChargeUniform(dangVerts, gContrib, simmachine.Dynamic, costPRContrib)

		for u, d := range outDeg {
			if d != 0 {
				contrib[u] = prev[u] / float64(d)
			}
		}
		newChanged = newChanged[:0]
		if !cached || it.dangling != was {
			// The base moved: every rank entry can differ. Full pull
			// sweep at kernel rates into the spare vector, which then
			// trades places with the cached one.
			cur := traverse.Resized(ws.spare, n)
			for v := range cur {
				cur[v] = pull(graph.VID(v), it.base)
				if cached && cur[v] != it.rank[v] {
					newChanged = append(newChanged, graph.VID(v))
				}
			}
			it.rank, ws.spare = cur, it.rank
			inst.m.ChargeUniform(n, gPull, simmachine.Dynamic, costPRVertex)
			inst.m.ChargeUniform(int(inst.in.NumEdges()), 4096, simmachine.Dynamic, costPREdge)
		} else {
			// Restricted sweep, written straight into the cached vector:
			// rows with changed in-membership plus post-graph
			// out-neighbors of any contrib-dirty vertex.
			rows := ws.rows[:0]
			mark := func(v graph.VID) {
				if !ws.rowMark[v] {
					ws.rowMark[v] = true
					rows = append(rows, v)
				}
			}
			for _, v := range ws.inRows {
				mark(v)
			}
			for _, list := range [][]graph.VID{changed, ws.degDirty} {
				for _, u := range list {
					row, _ := inst.out.Row(u, buf)
					for _, v := range row {
						mark(v)
					}
				}
			}
			var pullEdges int64
			for _, v := range rows {
				ws.rowMark[v] = false
				old := it.rank[v]
				it.rank[v] = pull(v, it.base)
				pullEdges += inst.in.Degree(v)
				if it.rank[v] != old {
					newChanged = append(newChanged, v)
				}
			}
			ws.rows = rows
			inst.m.ChargeUniform(len(rows), gPull, simmachine.Dynamic, costPRVertex)
			inst.m.ChargeUniform(int(pullEdges), 4096, simmachine.Dynamic, costPREdge)
		}

		// L1 partials: chunks containing a vertex whose prev or cur
		// differs from cache recompute.
		cur := it.rank
		it.l1Parts, it.l1, l1Verts = ws.patchedFold(n, gL1, it.l1Parts, func(lo, hi int) float64 {
			return l1Partial(cur, prev, lo, hi)
		}, changed, newChanged)
		inst.m.ChargeUniform(l1Verts, gL1, simmachine.Dynamic, costPRL1)

		prev = cur
		changed, newChanged = newChanged, changed
		iterations = t
		if it.l1 < opts.Epsilon {
			break
		}
	}

	// A shorter run drops the iterations past its end, one rank vector
	// kept if the last sweep left no spare.
	if iterations < len(iters) && ws.spare == nil {
		ws.spare = iters[iterations].rank
	}
	clear(iters[iterations:])
	traj.iters = iters[:iterations]
	ws.changed = [2][]graph.VID{changed, newChanged}
	st.prOut, st.prIn = inst.out, inst.in
	return &engines.PRResult{
		Rank:       append([]float64(nil), prev...),
		Iterations: iterations,
	}, nil
}

// patchedFold folds one of the kernel's per-chunk reductions over
// [0,n) in chunk order, in place: a chunk holding a vertex of dirty —
// every chunk, when there are no cached partials yet — is recomputed by
// partial, the rest keep the cached value. It returns the partials,
// their sum and the number of vertices recomputed (what is charged).
func (ws *prScratch) patchedFold(n, grain int, parts []float64, partial func(lo, hi int) float64, dirty ...[]graph.VID) (_ []float64, sum float64, verts int) {
	chunks := parallel.NumChunks(n, grain)
	all := parts == nil
	if all {
		parts = make([]float64, chunks)
	}
	ws.redo = traverse.Resized(ws.redo, chunks)
	clear(ws.redo)
	for _, list := range dirty {
		for _, v := range list {
			ws.redo[int(v)/grain] = true
		}
	}
	for c := range parts {
		if all || ws.redo[c] {
			lo, hi := c*grain, min(n, (c+1)*grain)
			parts[c] = partial(lo, hi)
			verts += hi - lo
		}
		sum += parts[c]
	}
	return parts, sum, verts
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
// baseline is patched in place (as in IncrementalPageRank, no error exit
// follows the cancel poll); only the published copy is allocated.
func (inst *Instance) IncrementalWCC() (*engines.WCCResult, error) {
	inst.BuildStructure()
	st := inst.streamState()
	if st.wccLab == nil {
		res, err := inst.WCC()
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
		affected := make(map[graph.VID]struct{})
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
	parent := make(map[graph.VID]graph.VID)
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
