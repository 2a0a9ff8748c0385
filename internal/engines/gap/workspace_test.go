package gap

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"github.com/hpcl-repro/epg/internal/alloctest"
	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/graph500"
	"github.com/hpcl-repro/epg/internal/engines/graphbig"
	"github.com/hpcl-repro/epg/internal/engines/graphmat"
	"github.com/hpcl-repro/epg/internal/engines/powergraph"
	"github.com/hpcl-repro/epg/internal/engines/traverse"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/simmachine"
	"github.com/hpcl-repro/epg/internal/xrand"
)

// rootsOf draws count traversal sources by the harness's root rule
// (degree > 1).
func rootsOf(c *graph.CSR, count int) []graph.VID {
	return core.SelectRoots(c, count, 0x7007)
}

// loadWith loads el into a fresh instance configured like the reused
// one under test.
func loadWith(t *testing.T, el *graph.EdgeList, workers int, compress, sync bool) *Instance {
	t.Helper()
	e := engine()
	engines.Configure(e, engines.Options{Compress: compress, SyncSSSP: sync})
	inst := load(t, e, el, 8)
	inst.m.SetWorkers(workers)
	return inst
}

// regionsSince returns a copy of the regions the machine recorded from
// trace index mark on — the per-call modeled cost in full (seconds,
// lanes, charged work), immune to the elapsed clock's accumulation
// order.
func regionsSince(m *simmachine.Machine, mark int) []simmachine.Region {
	return slices.Clone(m.Trace()[mark:])
}

// The reuse-equivalence wall: BFS and SSSP through ONE reused
// dst on ONE long-lived instance — across 32 roots, real worker counts,
// raw and compressed adjacency, both SSSP variants, and a Mutate in the
// middle — must be bit-equal, in values, work counters and every
// modeled region, to BFS/SSSP on an instance built fresh for each call.
// Chaotic SSSP is racy by design above one worker: there only the
// fixed-point distances are comparable.
func TestReusedWorkspaceBitEqualFreshInstance(t *testing.T) {
	el := kron(9, 21)
	for _, workers := range []int{1, 2, 4} {
		for _, compress := range []bool{false, true} {
			for _, sync := range []bool{true, false} {
				reused := loadWith(t, el, workers, compress, sync)
				var bfs engines.BFSResult
				var sssp engines.SSSPResult
				cur := el
				roots := rootsOf(reused.Graph().Out, 32)
				for i, root := range roots {
					if i == len(roots)/2 {
						b := streamBatch(reused.Graph().Out, xrand.New(99), 64, 0.4)
						if _, err := reused.Mutate(b); err != nil {
							t.Fatal(err)
						}
						cur = elFromCSR(reused.Graph().Out, false)
					}
					ctx := func(k string) string {
						return fmt.Sprintf("%s workers=%d compress=%v sync=%v", k, workers, compress, sync)
					}

					mark, _ := reused.m.Mark()
					got, err := reused.BFS(root, &bfs)
					if err != nil {
						t.Fatal(err)
					}
					gotRegions := regionsSince(reused.m, mark)
					fresh := loadWith(t, cur, workers, compress, sync)
					mark, _ = fresh.m.Mark()
					want, err := fresh.BFS(root, nil)
					if err != nil {
						t.Fatal(err)
					}
					if got != &bfs {
						t.Fatalf("%s: BFS returned a result other than dst", ctx("bfs"))
					}
					if !slices.Equal(got.Parent, want.Parent) || !slices.Equal(got.Depth, want.Depth) ||
						got.EdgesExamined != want.EdgesExamined || got.Root != want.Root {
						t.Fatalf("%s root %d: reused BFS differs from fresh", ctx("bfs"), root)
					}
					if !slices.Equal(gotRegions, regionsSince(fresh.m, mark)) {
						t.Fatalf("%s root %d: reused BFS modeled regions differ from fresh", ctx("bfs"), root)
					}

					mark, _ = reused.m.Mark()
					gotS, err := reused.SSSP(root, &sssp)
					if err != nil {
						t.Fatal(err)
					}
					gotRegions = regionsSince(reused.m, mark)
					fresh = loadWith(t, cur, workers, compress, sync)
					mark, _ = fresh.m.Mark()
					wantS, err := fresh.SSSP(root, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(gotS.Dist, wantS.Dist) {
						t.Fatalf("%s root %d: reused SSSP distances differ from fresh", ctx("sssp"), root)
					}
					if sync || workers == 1 {
						if !slices.Equal(gotS.Parent, wantS.Parent) || gotS.Relaxations != wantS.Relaxations {
							t.Fatalf("%s root %d: reused SSSP parents/relaxations differ from fresh", ctx("sssp"), root)
						}
						if !slices.Equal(gotRegions, regionsSince(fresh.m, mark)) {
							t.Fatalf("%s root %d: reused SSSP modeled regions differ from fresh", ctx("sssp"), root)
						}
					}
				}
			}
		}
	}
}

// A dst that is too small (or nil) is replaced, not overrun; one that
// is large enough is reused in place.
func TestIntoReusesOnlyLargeEnoughDst(t *testing.T) {
	inst := load(t, engine(), kron(8, 3), 4)
	root := rootsOf(inst.Graph().Out, 1)[0]
	small := &engines.BFSResult{Parent: make([]int64, 3), Depth: make([]int64, 3)}
	res, err := inst.BFS(root, small)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Parent) != inst.n || len(res.Depth) != inst.n {
		t.Fatalf("undersized dst not replaced: len %d/%d, n %d", len(res.Parent), len(res.Depth), inst.n)
	}
	before := &res.Parent[0]
	if res, err = inst.BFS(root, res); err != nil {
		t.Fatal(err)
	}
	if &res.Parent[0] != before {
		t.Fatal("large-enough dst was reallocated")
	}
	if fresh, _ := inst.BFS(root, nil); &fresh.Parent[0] == before {
		t.Fatal("BFS handed out an array a caller already owns")
	}
}

// resultSink keeps the results resultBytes makes on the heap.
var resultSink any

// resultBytes is what making one result allocates, once warm.
func resultBytes(newResult func() any) uint64 {
	return alloctest.BytesPerRun(4, func() { resultSink = newResult() })
}

// Warm BFS and SSSP into a warm dst, synchronous and chaotic, allocate nothing
// at all at two workers, and a warm PageRank and WCC — and PowerGraph's
// SSSP, PageRank and WCC and GraphBIG's and GraphMat's PageRank, whose
// bodies are records the same way — nothing beyond the result they hand
// out: the results are the caller's, the working set is the instance's,
// every region's bookkeeping is the machine's, its body is a method of
// the record its step fills, and the hand-off to the pool is the pool's
// reusable region record.
func TestWarmTraversalAllocationBound(t *testing.T) {
	el := kron(12, 5)
	warm := func(sync bool) *Instance {
		inst := loadWith(t, el, 2, false, sync)
		inst.m.SetTracing(false) // a trace grows by design
		return inst
	}
	inst, chaotic := warm(true), warm(false)
	roots := rootsOf(inst.Graph().Out, 8)
	var bfs engines.BFSResult
	var sssp engines.SSSPResult
	i := 0
	perBFS := alloctest.BytesPerRun(2*len(roots), func() {
		if _, err := inst.BFS(roots[i%len(roots)], &bfs); err != nil {
			t.Fatal(err)
		}
		i++
	})
	perSSSP := alloctest.BytesPerRun(2*len(roots), func() {
		if _, err := inst.SSSP(roots[i%len(roots)], &sssp); err != nil {
			t.Fatal(err)
		}
		i++
	})
	// A chaotic pass's outputs follow the CAS race, so now and then a
	// region or a chunk outputs more than ever and its slab regrows: the
	// fewest bytes of single calls reads a per-call term, not that.
	perChaotic := alloctest.FewestBytes(4*len(roots), func() {
		if _, err := chaotic.SSSP(roots[i%len(roots)], &sssp); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("warm BFS %d B/call, sync SSSP %d B/call, chaotic SSSP %d B/call", perBFS, perSSSP, perChaotic)
	if perBFS != 0 || perSSSP != 0 || perChaotic != 0 {
		t.Fatalf("warm traversal allocates BFS %d B, sync SSSP %d B, chaotic SSSP %d B per call; want 0, 0 and 0",
			perBFS, perSSSP, perChaotic)
	}
	n := inst.n
	perPR := alloctest.BytesPerRun(4, func() {
		if _, err := inst.PageRank(engines.DefaultPROpts(), nil); err != nil {
			t.Fatal(err)
		}
	})
	perWCC := alloctest.BytesPerRun(4, func() {
		if _, err := inst.WCC(nil); err != nil {
			t.Fatal(err)
		}
	})
	pr := resultBytes(func() any { return &engines.PRResult{Rank: make([]float64, n)} })
	wcc := resultBytes(func() any { return &engines.WCCResult{Component: make([]graph.VID, n)} })
	t.Logf("warm PageRank %d B/call (result %d B), WCC %d B/call (result %d B)", perPR, pr, perWCC, wcc)
	if perPR != pr || perWCC != wcc {
		t.Fatalf("warm PageRank allocates %d B beyond its result, WCC %d B; want 0 and 0", int64(perPR-pr), int64(perWCC-wcc))
	}

	pm := machine(8)
	pm.SetTracing(false)
	pm.SetWorkers(2)
	pg, err := (&engines.Engine{Decl: &powergraph.Decl}).Load(el, pm)
	if err != nil {
		t.Fatal(err)
	}
	perPG := alloctest.BytesPerRun(len(roots), func() {
		if _, err := pg.SSSP(roots[i%len(roots)], nil); err != nil {
			t.Fatal(err)
		}
		i++
	})
	pgSSSP := resultBytes(func() any { return traverse.StartSSSP(nil, 0, n) })
	bfsResult := resultBytes(func() any { return traverse.StartBFS(nil, 0, n) })
	perPGPR := alloctest.BytesPerRun(4, func() {
		if _, err := pg.PageRank(engines.DefaultPROpts(), nil); err != nil {
			t.Fatal(err)
		}
	})
	perPGWCC := alloctest.BytesPerRun(4, func() {
		if _, err := pg.WCC(nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm PowerGraph SSSP %d B/call (result %d B), PageRank %d B/call, WCC %d B/call", perPG, pgSSSP, perPGPR, perPGWCC)
	if perPG != pgSSSP || perPGPR != pr || perPGWCC != wcc {
		t.Fatalf("warm PowerGraph SSSP allocates %d B beyond its result, PageRank %d B, WCC %d B; want 0, 0 and 0",
			int64(perPG-pgSSSP), int64(perPGPR-pr), int64(perPGWCC-wcc))
	}

	for _, d := range []*engines.Decl{&graphbig.Decl, &graphmat.Decl} {
		om := machine(8)
		om.SetTracing(false)
		om.SetWorkers(2)
		other, err := (&engines.Engine{Decl: d}).Load(el, om)
		if err != nil {
			t.Fatal(err)
		}
		per := alloctest.BytesPerRun(4, func() {
			if _, err := other.PageRank(engines.DefaultPROpts(), nil); err != nil {
				t.Fatal(err)
			}
		})
		perBFS := alloctest.BytesPerRun(2*len(roots), func() {
			if _, err := other.BFS(roots[i%len(roots)], nil); err != nil {
				t.Fatal(err)
			}
			i++
		})
		// GraphBIG's SSSP is chaotic by default: see perChaotic above.
		ssspOf := alloctest.BytesPerRun
		if d == &graphbig.Decl {
			ssspOf = func(calls int, f func()) uint64 { return alloctest.FewestBytes(2*calls, f) }
		}
		perSSSP := ssspOf(2*len(roots), func() {
			if _, err := other.SSSP(roots[i%len(roots)], nil); err != nil {
				t.Fatal(err)
			}
			i++
		})
		t.Logf("warm %s PageRank %d B/call (result %d B), BFS %d B/call (result %d B), SSSP %d B/call (result %d B)",
			d.Name, per, pr, perBFS, bfsResult, perSSSP, pgSSSP)
		if per != pr || perBFS != bfsResult || perSSSP != pgSSSP {
			t.Fatalf("warm %s PageRank allocates %d B beyond its result, BFS %d B, SSSP %d B; want 0, 0 and 0",
				d.Name, int64(per-pr), int64(perBFS-bfsResult), int64(perSSSP-pgSSSP))
		}
	}
}

// The engines that are nothing but the shared top-down step get the
// same wall for free: a warm Graph500 or GraphBIG BFS allocates its two
// result arrays (the Instance interface hands out a fresh result) and,
// beyond them, nothing sized by the graph — under the same bound as
// GAP. Before the step was shared both made their claim queue, buffers,
// frontier and a counter per level afresh on every call.
func TestWarmSharedStepEnginesAllocateOnlyResults(t *testing.T) {
	const bound = 64 << 10
	el := kron(12, 5)
	roots := rootsOf(load(t, engine(), el, 8).Graph().Out, 8)
	results := uint64(2 * 8 * el.NumVertices)
	for _, d := range []*engines.Decl{&graph500.Decl, &graphbig.Decl} {
		eng := &engines.Engine{Decl: d}
		m := machine(8)
		m.SetTracing(false)
		m.SetWorkers(2)
		inst, err := eng.Load(el, m)
		if err != nil {
			t.Fatal(err)
		}
		inst.BuildStructure()
		i := 0
		per := alloctest.BytesPerRun(2*len(roots), func() {
			if _, err := inst.BFS(roots[i%len(roots)], nil); err != nil {
				t.Fatal(err)
			}
			i++
		})
		t.Logf("warm %s BFS %d B/call, %d B of it the result arrays", eng.Name, per, results)
		if per >= results+bound {
			t.Fatalf("warm %s BFS allocates %d B per call beyond its %d B result arrays; bound %d",
				eng.Name, per-results, results, bound)
		}
	}
}

// slabBytes is what the workspace's slabs retain.
func (ws *workspace) slabBytes() int {
	return ws.reAddBuf.Cap()*int(unsafe.Sizeof(graph.VID(0))) +
		ws.laterBuf.Cap()*int(unsafe.Sizeof([2]int64{}))
}

// regionBytes is the output the most recent region of each kind left in
// the workspace's queues, in all and in its largest chunk.
func (ws *workspace) regionBytes() (region, chunk [2]int) {
	vid, later := int(unsafe.Sizeof(graph.VID(0))), int(unsafe.Sizeof([2]int64{}))
	for _, b := range ws.reAddQ.Chunks() {
		region[0] += len(b) * vid
		chunk[0] = max(chunk[0], len(b)*vid)
	}
	for _, b := range ws.laterQ.Chunks() {
		region[1] += len(b) * later
		chunk[1] = max(chunk[1], len(b)*later)
	}
	return region, chunk
}

// The bounded-retention rule for the queues GAP keeps to itself (the
// shared steps' slabs have the same wall in internal/engines/traverse):
// after 40 chaotic searches the slabs hold no more than the bound Slab
// documents, twice the largest single region's output plus twice the
// largest chunk's per worker. Keeping every chunk's high-water buffer
// instead — the obvious way to stop allocating — retains several times
// that and fails here. The largest region and chunk are observed
// through the cancellation hook, which the kernels poll between
// regions, and once more after each call.
func TestWorkspaceRetentionBoundedByLargestRegion(t *testing.T) {
	const workers = 2
	inst := load(t, engine(), kron(12, 9), 8)
	inst.m.SetWorkers(workers)
	var peak, peakChunk [2]int
	observe := func() error {
		region, chunk := inst.ws.regionBytes()
		for i := range region {
			peak[i] = max(peak[i], region[i])
			peakChunk[i] = max(peakChunk[i], chunk[i])
		}
		return nil
	}
	inst.SetCancel(observe)
	var sssp engines.SSSPResult
	for _, root := range rootsOf(inst.Graph().Out, 40) {
		if _, err := inst.SSSP(root, &sssp); err != nil {
			t.Fatal(err)
		}
		_ = observe()
	}
	need, chunk := peak[0]+peak[1], peakChunk[0]+peakChunk[1]
	got := inst.ws.slabBytes()
	bound := 2*need + 2*workers*chunk
	t.Logf("slabs retain %d B; largest regions' outputs sum to %d B (%.2fx), largest chunks' to %d B; bound %d B",
		got, need, float64(got)/float64(need), chunk, bound)
	if got > bound {
		t.Fatalf("slabs retain %d B, over 2x the %d B the largest regions produced plus 2x%d workers' %d B largest chunks",
			got, need, workers, chunk)
	}
}
