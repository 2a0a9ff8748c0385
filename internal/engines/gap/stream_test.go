package gap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"testing"

	"github.com/hpcl-repro/epg/internal/alloctest"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/kronecker"
	"github.com/hpcl-repro/epg/internal/xrand"
)

// elFromCSR reconstructs the edge list a current-epoch CSR represents:
// the exact input from which a cold BuildStructure reproduces the same
// normalized structure. Undirected rows hold both orientations with
// equal weights, so one canonical (u < v) orientation suffices.
func elFromCSR(c *graph.CSR, directed bool) *graph.EdgeList {
	el := &graph.EdgeList{NumVertices: c.NumVertices, Weighted: c.Weighted(), Directed: directed}
	for v := 0; v < c.NumVertices; v++ {
		adj := c.Neighbors(graph.VID(v))
		ws := c.NeighborWeights(graph.VID(v))
		for i, u := range adj {
			if !directed && u < graph.VID(v) {
				continue
			}
			e := graph.Edge{Src: graph.VID(v), Dst: u}
			if ws != nil {
				e.W = ws[i]
			}
			el.Edges = append(el.Edges, e)
		}
	}
	return el
}

// sampleEdge picks a uniformly random stored adjacency entry.
func sampleEdge(c *graph.CSR, r *xrand.RNG) (graph.VID, graph.VID, bool) {
	if c.NumEdges() == 0 {
		return 0, 0, false
	}
	u, v := entryAt(c, int64(r.Intn(int(c.NumEdges()))))
	return u, v, true
}

// entryAt is the idx-th stored adjacency entry in row order, read
// through the row accessors, so c may be an overlay epoch.
func entryAt(c *graph.CSR, idx int64) (graph.VID, graph.VID) {
	v := graph.VID(0)
	for ; idx >= c.Degree(v); v++ {
		idx -= c.Degree(v)
	}
	return v, c.Neighbors(v)[idx]
}

// streamBatch builds a deterministic mixed batch against the current
// epoch: deletes sample stored edges, inserts draw random pairs.
func streamBatch(c *graph.CSR, r *xrand.RNG, ops int, deleteFrac float64) graph.Batch {
	n := c.NumVertices
	b := make(graph.Batch, 0, ops)
	for i := 0; i < ops; i++ {
		if r.Float64() < deleteFrac {
			if u, v, ok := sampleEdge(c, r); ok {
				b = append(b, graph.Mutation{Op: graph.MutDelete, Src: u, Dst: v})
				continue
			}
		}
		b = append(b, graph.Mutation{
			Op:  graph.MutInsert,
			Src: graph.VID(r.Intn(n)),
			Dst: graph.VID(r.Intn(n)),
			W:   float32(1 - r.Float64()),
		})
	}
	return b
}

func ranksEqual(t *testing.T, got, want *engines.PRResult, ctx string) {
	t.Helper()
	if got.Iterations != want.Iterations {
		t.Fatalf("%s: iterations %d, full recompute %d", ctx, got.Iterations, want.Iterations)
	}
	if len(got.Rank) != len(want.Rank) {
		t.Fatalf("%s: rank length %d vs %d", ctx, len(got.Rank), len(want.Rank))
	}
	for v := range want.Rank {
		if got.Rank[v] != want.Rank[v] {
			t.Fatalf("%s: rank[%d] = %x, full recompute %x", ctx, v, got.Rank[v], want.Rank[v])
		}
	}
}

func labelsEqual(t *testing.T, got, want *engines.WCCResult, ctx string) {
	t.Helper()
	if len(got.Component) != len(want.Component) {
		t.Fatalf("%s: component length %d vs %d", ctx, len(got.Component), len(want.Component))
	}
	for v := range want.Component {
		if got.Component[v] != want.Component[v] {
			t.Fatalf("%s: component[%d] = %d, full recompute %d", ctx, v, got.Component[v], want.Component[v])
		}
	}
}

// freshPR runs a cold full PageRank on the post-batch graph.
func freshPR(t *testing.T, el *graph.EdgeList, threads int) *engines.PRResult {
	t.Helper()
	inst := load(t, engine(), el, threads)
	res, err := inst.PageRank(engines.DefaultPROpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func freshWCC(t *testing.T, el *graph.EdgeList, threads int) *engines.WCCResult {
	t.Helper()
	inst := load(t, engine(), el, threads)
	res, err := inst.WCC(nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The tentpole wall: across a stream of mixed batches, incremental
// PageRank must stay bit-equal (ranks and iteration counts) to a cold
// full recompute on the post-batch graph, at every worker count.
func TestIncrementalPageRankBitEqualFullRecompute(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for seed := uint64(1); seed <= 3; seed++ {
			el := kron(7, seed)
			el.Directed = directed
			var prevRanks []float64
			for _, threads := range []int{2, 8} {
				inst := load(t, engine(), el, threads)
				if _, err := inst.IncrementalPageRank(engines.DefaultPROpts()); err != nil {
					t.Fatal(err)
				}
				r := xrand.New(seed ^ 0xabcd)
				var finalRanks []float64
				for batch := 0; batch < 4; batch++ {
					b := streamBatch(inst.Graph().Out, r, 40, 0.4)
					if _, err := inst.Mutate(b); err != nil {
						t.Fatal(err)
					}
					inc, err := inst.IncrementalPageRank(engines.DefaultPROpts())
					if err != nil {
						t.Fatal(err)
					}
					want := freshPR(t, elFromCSR(inst.Graph().Out, directed), 8)
					ranksEqual(t, inc, want, "directed="+bstr(directed))
					finalRanks = inc.Rank
				}
				if prevRanks != nil {
					for v := range prevRanks {
						if prevRanks[v] != finalRanks[v] {
							t.Fatalf("threads=%d diverges from previous worker count at %d", threads, v)
						}
					}
				}
				prevRanks = finalRanks
			}
		}
	}
}

func bstr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}

// A baseline that converges instantly (regular ring: uniform ranks are
// the fixed point) followed by a hub insertion: the maintain must run
// longer than the answer it keeps, and still equal a cold run.
func TestIncrementalPageRankBeyondCachedHorizon(t *testing.T) {
	n := 64
	el := &graph.EdgeList{NumVertices: n}
	for v := 0; v < n; v++ {
		el.Edges = append(el.Edges, graph.Edge{Src: graph.VID(v), Dst: graph.VID((v + 1) % n)})
	}
	inst := load(t, engine(), el, 4)
	base, err := inst.IncrementalPageRank(engines.DefaultPROpts())
	if err != nil {
		t.Fatal(err)
	}
	if base.Iterations > 2 {
		t.Fatalf("ring baseline took %d iterations; expected near-instant convergence", base.Iterations)
	}
	var b graph.Batch
	for v := 1; v < n; v += 2 {
		b = append(b, graph.Mutation{Op: graph.MutInsert, Src: 0, Dst: graph.VID(v)})
	}
	if _, err := inst.Mutate(b); err != nil {
		t.Fatal(err)
	}
	inc, err := inst.IncrementalPageRank(engines.DefaultPROpts())
	if err != nil {
		t.Fatal(err)
	}
	want := freshPR(t, elFromCSR(inst.Graph().Out, false), 8)
	if inc.Iterations <= base.Iterations {
		t.Fatalf("hub insertion converged in %d iterations (baseline %d); test no longer reaches past the horizon", inc.Iterations, base.Iterations)
	}
	ranksEqual(t, inc, want, "beyond-horizon")
}

// The same on a directed ring, where the maintain pulls along a separate
// in-adjacency and runs at least two iterations longer than the answer
// it keeps. (What it charges is pinned region for region by the stream
// row of the golden wall in internal/engines/all.)
func TestIncrementalPageRankSeveralIterationsBeyondHorizon(t *testing.T) {
	n := 96
	el := &graph.EdgeList{NumVertices: n, Directed: true}
	for v := 0; v < n; v++ {
		el.Edges = append(el.Edges, graph.Edge{Src: graph.VID(v), Dst: graph.VID((v + 1) % n)})
	}
	for _, workers := range []int{1, 4} {
		inst := load(t, engine(), el, 4)
		inst.Machine().SetWorkers(workers)
		base, err := inst.IncrementalPageRank(engines.DefaultPROpts())
		if err != nil {
			t.Fatal(err)
		}
		var b graph.Batch
		for v := 2; v < n; v += 3 {
			b = append(b, graph.Mutation{Op: graph.MutInsert, Src: 0, Dst: graph.VID(v)})
		}
		if _, err := inst.Mutate(b); err != nil {
			t.Fatal(err)
		}
		inc, err := inst.IncrementalPageRank(engines.DefaultPROpts())
		if err != nil {
			t.Fatal(err)
		}
		if inc.Iterations < base.Iterations+2 {
			t.Fatalf("workers %d: %d iterations on a %d-iteration baseline: fewer than two beyond the horizon", workers, inc.Iterations, base.Iterations)
		}
		ranksEqual(t, inc, freshPR(t, elFromCSR(inst.Graph().Out, true), 8), "several beyond the horizon")
		// The new answer is the new baseline: an unchanged graph now
		// returns it for free, iteration count included.
		again, err := inst.IncrementalPageRank(engines.DefaultPROpts())
		if err != nil {
			t.Fatal(err)
		}
		ranksEqual(t, again, inc, "kept baseline")
	}
}

// Deleting a vertex's entire out-row on a directed graph makes it
// dangling, which moves the base term of every iteration — still
// bit-equal.
func TestIncrementalPageRankDanglingShift(t *testing.T) {
	el := kron(7, 9)
	el.Directed = true
	inst := load(t, engine(), el, 4)
	if _, err := inst.IncrementalPageRank(engines.DefaultPROpts()); err != nil {
		t.Fatal(err)
	}
	// Empty the out-row of the highest-degree vertex.
	out := inst.Graph().Out
	var hub graph.VID
	for v := 0; v < out.NumVertices; v++ {
		if out.Degree(graph.VID(v)) > out.Degree(hub) {
			hub = graph.VID(v)
		}
	}
	if out.Degree(hub) == 0 {
		t.Skip("degenerate graph")
	}
	var b graph.Batch
	for _, u := range out.Neighbors(hub) {
		b = append(b, graph.Mutation{Op: graph.MutDelete, Src: hub, Dst: u})
	}
	if _, err := inst.Mutate(b); err != nil {
		t.Fatal(err)
	}
	inc, err := inst.IncrementalPageRank(engines.DefaultPROpts())
	if err != nil {
		t.Fatal(err)
	}
	if got := inst.Graph().Out.Degree(hub); got != 0 {
		t.Fatalf("hub still has out-degree %d", got)
	}
	want := freshPR(t, elFromCSR(inst.Graph().Out, true), 8)
	ranksEqual(t, inc, want, "dangling-shift")
}

// Incremental WCC: unions on inserts, affected-component recompute on
// deletes, integer-exact against the kernel's canonical min-vertex
// labels across mixed streams, shapes, and worker counts.
func TestIncrementalWCCBitEqualFullRecompute(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for seed := uint64(1); seed <= 3; seed++ {
			// Sparse graphs keep multiple components alive so splits
			// and merges actually occur.
			el := randomSparseEL(seed, 96, 70, directed)
			for _, threads := range []int{2, 8} {
				inst := load(t, engine(), el, threads)
				if _, err := inst.IncrementalWCC(); err != nil {
					t.Fatal(err)
				}
				r := xrand.New(seed ^ 0x77)
				for batch := 0; batch < 5; batch++ {
					b := streamBatch(inst.Graph().Out, r, 20, 0.5)
					if _, err := inst.Mutate(b); err != nil {
						t.Fatal(err)
					}
					inc, err := inst.IncrementalWCC()
					if err != nil {
						t.Fatal(err)
					}
					want := freshWCC(t, elFromCSR(inst.Graph().Out, directed), 8)
					labelsEqual(t, inc, want, "directed="+bstr(directed))
				}
			}
		}
	}
}

func randomSparseEL(seed uint64, n, m int, directed bool) *graph.EdgeList {
	r := xrand.New(seed)
	el := &graph.EdgeList{NumVertices: n, Directed: directed}
	for i := 0; i < m; i++ {
		el.Edges = append(el.Edges, graph.Edge{Src: graph.VID(r.Intn(n)), Dst: graph.VID(r.Intn(n))})
	}
	return el
}

// Small batches must cost less than a full recompute on the modeled
// clock — the whole point of the incremental path.
func TestIncrementalCheaperThanRecompute(t *testing.T) {
	el := kron(9, 6)
	inst := load(t, engine(), el, 8)
	if _, err := inst.IncrementalPageRank(engines.DefaultPROpts()); err != nil {
		t.Fatal(err)
	}
	r := xrand.New(5)
	b := streamBatch(inst.Graph().Out, r, 8, 0.5)
	t0 := inst.Machine().Elapsed()
	if _, err := inst.Mutate(b); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.IncrementalPageRank(engines.DefaultPROpts()); err != nil {
		t.Fatal(err)
	}
	incCost := inst.Machine().Elapsed() - t0

	// The alternative the incremental path displaces is a full rebuild:
	// Kernel-1 construction on the post-batch graph plus a cold
	// PageRank.
	m2 := machine(8)
	ri, err := engine().Load(elFromCSR(inst.Graph().Out, false), m2)
	if err != nil {
		t.Fatal(err)
	}
	ref := ri.(*Instance)
	ref.BuildStructure()
	if _, err := ref.PageRank(engines.DefaultPROpts(), nil); err != nil {
		t.Fatal(err)
	}
	fullCost := m2.Elapsed()
	if incCost >= fullCost {
		t.Fatalf("incremental maintenance (%v) not cheaper than full recompute (%v) for an 8-op batch", incCost, fullCost)
	}
}

// Mutate must reject malformed batches without touching the structure.
func TestMutateRejectsInvalid(t *testing.T) {
	el := kron(6, 1)
	inst := load(t, engine(), el, 2)
	before := inst.Graph().Out
	if _, err := inst.Mutate(graph.Batch{{Op: graph.MutInsert, Src: 0, Dst: graph.VID(inst.n + 5)}}); err == nil {
		t.Fatal("out-of-range mutation accepted")
	}
	if inst.Graph().Out != before {
		t.Fatal("failed Mutate swapped the epoch")
	}
}

// Allowances of TestMutateAllocFollowsDirtyRows, per the graph
// package's overlay: a dirty row takes an entry in one of two tables,
// a copy's two slice headers or a delta's slice header and length (80
// bytes between them, allowed twice over for the tables' blocks); a
// row of deltaFloor entries or more is a delta row, which a 64-op batch
// keeps to a few entries; a replay allocates at most replayBytesPerOp
// per op.
const (
	rowEntryBytes    = 80
	deltaFloor       = 512
	replayBytesPerOp = 320
)

// A Mutate allocates what the entries its batch changes need, not its
// dirty rows whole and not the graph: on weighted undirected kron-13, a
// warm Mutate of a 64-op batch that does not compact allocates at most
// the slot index, the row table's growth, the rows under the delta
// floor copied, a floor's worth for each row at or past it (a delta of
// a few entries) and the replay; and less than the same overlay with
// every dirty row copied whole. Each call rebinds the flat graph first,
// so every one applies the same batch to the same rows.
func TestMutateAllocFollowsDirtyRows(t *testing.T) {
	inst := load(t, engine(), kron(13, 1), 8)
	base := inst.Graph()
	out := base.Out
	batch := streamBatch(out, xrand.New(12), 64, 0.4)
	per := alloctest.BytesPerRun(4, func() {
		rebind(inst, base)
		if _, err := inst.Mutate(batch); err != nil {
			t.Fatal(err)
		}
	})
	next := inst.Graph().Out
	const entry = 8 // a neighbor and its weight
	var dirty, small, floors, whole uint64
	prev := graph.VID(out.NumVertices)
	for c := range graph.Diff(out, next) {
		if c.Src == prev {
			continue
		}
		prev = c.Src
		dirty++
		deg := uint64(next.Degree(c.Src))
		whole += deg * entry
		if deg < deltaFloor {
			small += deg * entry
		} else {
			floors += deltaFloor * entry
		}
	}
	slot, table, replay := uint64(4*out.NumVertices), 2*dirty*rowEntryBytes, replayBytesPerOp*uint64(len(batch))
	bound := slot + table + small + floors + replay
	whole += slot + table + replay
	t.Logf("warm Mutate of %d ops, %d dirty rows, %d of them deltas: %d B; bound %d B (slot index %d, row table %d, small rows %d, deltas %d, replay %d); with the dirty rows whole %d B",
		len(batch), dirty, next.DeltaRows(), per, bound, slot, table, small, floors, replay, whole)
	switch {
	case next.Flat() == next:
		t.Fatal("the 64-op Mutate compacted; the wall measures an overlay")
	case next.DeltaRows() == 0:
		t.Fatal("the 64-op Mutate made no delta row; the wall measures hub rows as deltas")
	case per > bound:
		t.Fatalf("a warm 64-op Mutate allocates %d B; bound %d B", per, bound)
	case per >= whole:
		t.Fatalf("a warm 64-op Mutate allocates %d B; with its dirty rows copied whole it would take %d B", per, whole)
	}
}

// A maintain keeps only its answer, so a run that converges sooner than
// the one before it and one that then runs longer than any before are
// both plain cold runs: every step is bit-equal to a cold instance, and
// a second maintain on the same rows returns the kept answer, iteration
// count included.
func TestIncrementalPageRankTrajectoryShrinksThenGrows(t *testing.T) {
	n := 96
	el := &graph.EdgeList{NumVertices: n}
	for v := 0; v < n; v++ {
		el.Edges = append(el.Edges, graph.Edge{Src: graph.VID(v), Dst: graph.VID((v + 1) % n)})
	}
	inst := load(t, engine(), el, 4)
	maintain := func(ctx string, b graph.Batch) *engines.PRResult {
		t.Helper()
		if _, err := inst.Mutate(b); err != nil {
			t.Fatal(err)
		}
		inc, err := inst.IncrementalPageRank(engines.DefaultPROpts())
		if err != nil {
			t.Fatal(err)
		}
		ranksEqual(t, inc, freshPR(t, elFromCSR(inst.Graph().Out, false), 8), ctx)
		again, err := inst.IncrementalPageRank(engines.DefaultPROpts())
		if err != nil {
			t.Fatal(err)
		}
		ranksEqual(t, again, inc, ctx+", kept")
		return inc
	}
	spokes := func(op graph.MutOp, hub, step int) graph.Batch {
		var b graph.Batch
		for v := hub + 2; v < hub+n-1; v += step {
			b = append(b, graph.Mutation{Op: op, Src: graph.VID(hub), Dst: graph.VID(v % n)})
		}
		return b
	}
	base := maintain("ring", nil)
	twoHubs := append(spokes(graph.MutInsert, 7, 3), spokes(graph.MutInsert, 50, 5)...)
	grown := maintain("two hubs", twoHubs)
	for i := range twoHubs {
		twoHubs[i].Op = graph.MutDelete
	}
	shrunk := maintain("two hubs undone", twoHubs)
	regrown := maintain("one hub", spokes(graph.MutInsert, 0, 2))
	if !(base.Iterations < grown.Iterations && shrunk.Iterations < grown.Iterations && regrown.Iterations > grown.Iterations) {
		t.Fatalf("iterations: ring %d, two hubs %d, undone %d, one hub %d: the runs no longer shrink and then grow past the longest",
			base.Iterations, grown.Iterations, shrunk.Iterations, regrown.Iterations)
	}
}

// A cancelled maintain must leave a baseline the next one still answers
// from exactly. PageRank polls once per iteration and writes its
// baseline only after the last, so it is cancelled at every poll from
// the first to the run's last, each on a fresh batch, and the uncancelled
// maintain that follows must equal a cold run. IncrementalWCC patches its
// baseline in place, so it may have no way out between its first write
// and its last: a hook that passes the first cancel poll of a call and
// refuses every later one must never be heard from, and a call refused
// at that first poll must leave a baseline the next call still converges
// from exactly.
func TestCancelledMaintainLeavesBaselineWhole(t *testing.T) {
	inst := load(t, engine(), kron(9, 33), 4)
	r := xrand.New(5)
	if _, err := inst.IncrementalPageRank(engines.DefaultPROpts()); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.IncrementalWCC(); err != nil {
		t.Fatal(err)
	}
	polls, allowed := 0, 0
	inst.SetCancel(func() error {
		if polls++; polls > allowed {
			return errors.New("stop")
		}
		return nil
	})
	mutate := func() {
		t.Helper()
		if _, err := inst.Mutate(streamBatch(inst.Graph().Out, r, 48, 0.5)); err != nil {
			t.Fatal(err)
		}
	}

	for k := 1; ; k++ {
		mutate()
		want := freshPR(t, elFromCSR(inst.Graph().Out, false), 8)
		if k > want.Iterations {
			if k < 3 {
				t.Fatalf("a %d-iteration run cancels at too few polls to test", want.Iterations)
			}
			break
		}
		polls, allowed = 0, k-1
		if _, err := inst.IncrementalPageRank(engines.DefaultPROpts()); err == nil || polls != k {
			t.Fatalf("IncrementalPageRank cancelled at poll %d of %d: err %v after %d polls", k, want.Iterations, err, polls)
		}
		allowed = math.MaxInt
		pr, err := inst.IncrementalPageRank(engines.DefaultPROpts())
		if err != nil {
			t.Fatal(err)
		}
		ranksEqual(t, pr, want, fmt.Sprintf("after a maintain cancelled at poll %d", k))
	}

	polls, allowed = 0, 0
	mutate()
	if _, err := inst.IncrementalWCC(); err == nil {
		t.Fatal("IncrementalWCC ignored a cancel at its first poll")
	}
	mutate()
	allowed = 1
	for round := 0; round < 2; round++ {
		polls = 0
		wcc, err := inst.IncrementalWCC()
		if err != nil {
			t.Fatalf("round %d: IncrementalWCC polled for cancellation after it began writing its baseline: %v", round, err)
		}
		labelsEqual(t, wcc, freshWCC(t, elFromCSR(inst.Graph().Out, false), 8), "after a cancelled maintain")
		mutate()
	}
}

// A warm maintain allocates what it publishes — the rank vector and the
// component vector handed to readers, one and a half n-vectors of eight
// bytes. Everything else (the kernel's spare rank vector, contributions
// and degrees, the WCC repair's marks and queue) is reused, so three
// n-vectors bound it, and one more per-call vector in n breaks the
// bound. The stream, on a sparser kron-12, applies a batch and then its
// inverse, over and over; the smallest of six warm rounds counts.
func TestMaintainAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	inst := load(t, engine(), kronecker.Generate(kronecker.Params{Scale: 12, EdgeFactor: 4, Seed: 5}), 8)
	inst.m.SetTracing(false) // a trace grows by design
	for _, f := range []func() error{
		func() error { _, err := inst.IncrementalPageRank(engines.DefaultPROpts()); return err },
		func() error { _, err := inst.IncrementalWCC(); return err },
	} {
		if err := f(); err != nil {
			t.Fatal(err)
		}
	}
	var apply, undo graph.Batch
	r := xrand.New(17)
	for len(apply) < 128 {
		if u, v, ok := sampleEdge(inst.Graph().Out, r); ok && len(apply)%2 == 0 {
			apply = append(apply, graph.Mutation{Op: graph.MutDelete, Src: u, Dst: v})
			undo = append(undo, graph.Mutation{Op: graph.MutInsert, Src: u, Dst: v, W: 0.5})
		} else if u, v := graph.VID(r.Intn(inst.n)), graph.VID(r.Intn(inst.n)); u != v && !inst.Graph().Out.HasEdge(u, v) {
			apply = append(apply, graph.Mutation{Op: graph.MutInsert, Src: u, Dst: v, W: 0.5})
			undo = append(undo, graph.Mutation{Op: graph.MutDelete, Src: u, Dst: v})
		}
	}
	bound := uint64(3 * 8 * inst.n)
	best := uint64(math.MaxUint64)
	var ms runtime.MemStats
	for round := 0; round < 8; round++ {
		b := apply
		if round%2 == 1 {
			b = undo
		}
		if _, err := inst.Mutate(b); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if _, err := inst.IncrementalPageRank(engines.DefaultPROpts()); err != nil {
			t.Fatal(err)
		}
		if _, err := inst.IncrementalWCC(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		if round >= 2 { // the first two rounds size the scratch
			best = min(best, ms.TotalAlloc-before)
		}
	}
	t.Logf("warm IncrementalPageRank + IncrementalWCC: %d B, bound %d B", best, bound)
	if best > bound {
		t.Fatalf("a warm maintain allocates %d B; bound %d B (three n-vectors)", best, bound)
	}
}

// The PageRank maintainer keeps its answer, not the run that found it:
// after a stream of batches shaped like epgd's mutates (192 inserts and
// 64 deletes each), the state it holds beyond the epoch that answer
// describes is at most two float64 n-vectors. A memo of the run, one
// rank vector an iteration, holds some thirty times that.
func TestWarmMaintainRetainsTwoVectors(t *testing.T) {
	inst := load(t, engine(), kron(12, 5), 8)
	r := xrand.New(23)
	for batch := 0; batch < 12; batch++ {
		out := inst.Graph().Out
		b := append(streamBatch(out, r, 192, 0), streamBatch(out, r, 64, 1)...)
		if _, err := inst.Mutate(b); err != nil {
			t.Fatal(err)
		}
		if _, err := inst.IncrementalPageRank(engines.DefaultPROpts()); err != nil {
			t.Fatal(err)
		}
	}
	held := alloctest.Retained(func() { inst.stream = nil })
	bound := uint64(2 * 8 * inst.n)
	t.Logf("PageRank maintainer state after 12 batches: %d B, bound %d B", held, bound)
	if held > bound {
		t.Fatalf("the PageRank maintainer keeps %d B beyond its epoch; bound %d B (two n-vectors)", held, bound)
	}
}

// rebind points inst at g and builds, as a serving executor does when
// it moves to a published generation: Bind with the instance's own
// machine and knobs, then BuildStructure.
func rebind(inst *Instance, g *graph.Simple) {
	inst.Bind(g, inst.m, inst.opts)
	inst.BuildStructure()
}

// epochDigest hashes every array of a graph, lengths included, and with
// compress its compressed siblings; raw rows are read through Flat, so
// an overlay's patched rows and the base rows it shares are both
// covered.
func epochDigest(g *graph.Simple, compress bool) uint64 {
	h := fnv.New64a()
	rows := []*graph.CSR{g.Out}
	if g.In != nil {
		rows = append(rows, g.In)
	}
	for _, c := range rows {
		f := c.Flat()
		binary.Write(h, binary.LittleEndian, []int64{int64(len(f.Offsets)), int64(len(f.Adj)), int64(len(f.Weights))})
		binary.Write(h, binary.LittleEndian, f.Offsets)
		binary.Write(h, binary.LittleEndian, f.Adj)
		binary.Write(h, binary.LittleEndian, f.Weights)
		if compress {
			cc := g.Compressed(c)
			binary.Write(h, binary.LittleEndian, cc.Offsets)
			h.Write(cc.Data)
		}
	}
	return h.Sum64()
}

// What publish-and-bind stands on: a graph handed out by a mutating
// instance (Graph) is never written again (raw rows and compressed
// bytes hash the same after further batches and maintains), and a
// second instance bound to it (Bind, then BuildStructure) answers every
// kernel as an instance loaded fresh on it — also when it is bound back
// from a newer graph.
func TestBoundInstanceRunsOnAFrozenEpoch(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for _, compress := range []bool{false, true} {
			el := kron(8, 3)
			el.Directed = directed
			owner := loadWith(t, el, 8, compress, true)
			bound := loadWith(t, el, 8, compress, true)
			r := xrand.New(5)
			var held []*graph.Simple
			var sums []uint64
			for step := 0; step < 4; step++ {
				if _, err := owner.Mutate(streamBatch(owner.Graph().Out, r, 40, 0.4)); err != nil {
					t.Fatal(err)
				}
				if _, err := owner.IncrementalPageRank(engines.DefaultPROpts()); err != nil {
					t.Fatal(err)
				}
				if _, err := owner.IncrementalWCC(); err != nil {
					t.Fatal(err)
				}
				held = append(held, owner.Graph())
				sums = append(sums, epochDigest(owner.Graph(), compress))
			}
			// Newest first, so every later bind goes backwards.
			for i := len(held) - 1; i >= 0; i-- {
				ctx := "directed=" + bstr(directed) + " compress=" + bstr(compress) + " epoch " + string(rune('0'+i))
				if got := epochDigest(held[i], compress); got != sums[i] {
					t.Fatalf("%s: arrays changed after it was handed out: %x, was %x", ctx, got, sums[i])
				}
				rebind(bound, held[i])
				fresh := loadWith(t, elFromCSR(held[i].Out, directed), 8, compress, true)
				root := rootsOf(held[i].Out, 1)[0]
				gb, err := bound.BFS(root, nil)
				if err != nil {
					t.Fatal(err)
				}
				fb, _ := fresh.BFS(root, nil)
				gs, err := bound.SSSP(root, nil)
				if err != nil {
					t.Fatal(err)
				}
				fs, _ := fresh.SSSP(root, nil)
				if !slices.Equal(gb.Depth, fb.Depth) || !slices.Equal(gs.Dist, fs.Dist) {
					t.Fatalf("%s: bound instance's BFS or SSSP differs from a fresh load of that graph", ctx)
				}
				gp, err := bound.PageRank(engines.DefaultPROpts(), nil)
				if err != nil {
					t.Fatal(err)
				}
				ranksEqual(t, gp, freshPR(t, elFromCSR(held[i].Out, directed), 8), ctx)
				gw, err := bound.WCC(nil)
				if err != nil {
					t.Fatal(err)
				}
				labelsEqual(t, gw, freshWCC(t, elFromCSR(held[i].Out, directed), 8), ctx)
			}
		}
	}
}
