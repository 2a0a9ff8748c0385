package gap

import (
	"math"
	"runtime"
	"testing"

	"github.com/hpcl-repro/epg/internal/alloctest"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/xrand"
)

// flatEpoch is e with every row compacted: the same graph, no overlay.
func flatEpoch(e Epoch) Epoch {
	f := Epoch{out: e.out.Flat()}
	f.in = f.out
	if e.in != e.out {
		f.in = e.in.Flat()
	}
	return f
}

// hubStream is a batch on c that deletes stored entries, which a draw
// by entry lands mostly in hub rows, and its undo, which inserts them
// back at weight 0.5: after both the hub rows differ from the base in
// weights only, so an overlay keeps them as delta rows.
func hubStream(c *graph.CSR, r *xrand.RNG, ops int) (apply, undo graph.Batch) {
	for len(apply) < ops {
		if u, v, ok := sampleEdge(c, r); ok {
			apply = append(apply, graph.Mutation{Op: graph.MutDelete, Src: u, Dst: v})
			undo = append(undo, graph.Mutation{Op: graph.MutInsert, Src: u, Dst: v, W: 0.5})
		}
	}
	return apply, undo
}

// A warm kernel reads an epoch's delta rows through its per-worker
// buffers: on an overlay holding hub rows as deltas, BFS, both SSSP
// variants, PageRank and WCC allocate no more than on the same epoch
// compacted (the same graph flat), at one worker and at two (chaotic
// SSSP at one: above it its races make each call's queues differ).
func TestWarmKernelsOnDeltaRowsAllocateAsOnFlat(t *testing.T) {
	inst := load(t, engine(), kron(13, 5), 8)
	inst.m.SetTracing(false) // a trace grows by design
	apply, _ := hubStream(inst.Epoch().Out(), xrand.New(3), 64)
	if _, err := inst.Mutate(apply); err != nil {
		t.Fatal(err)
	}
	delta := inst.Epoch()
	if delta.out.DeltaRows() == 0 || delta.out.Flat() == delta.out {
		t.Fatal("the batch left no overlay with delta rows; the wall measures one")
	}
	flat := flatEpoch(delta)
	roots := rootsOf(delta.out, 4)
	var bfs engines.BFSResult
	var sssp engines.SSSPResult
	i := 0
	ssspInto := func(sync bool) func() error {
		return func() error {
			inst.opts.SyncSSSP = sync
			_, err := inst.SSSPInto(roots[i%len(roots)], &sssp)
			i++
			return err
		}
	}
	kernels := []struct {
		name string
		run  func() error
	}{
		{"BFS", func() error { _, err := inst.BFSInto(roots[i%len(roots)], &bfs); i++; return err }},
		{"SSSP", ssspInto(false)},
		{"sync SSSP", ssspInto(true)},
		{"PageRank", func() error { _, err := inst.PageRank(engines.DefaultPROpts()); return err }},
		{"WCC", func() error { _, err := inst.WCC(); return err }},
	}
	for _, workers := range []int{1, 2} {
		inst.m.SetWorkers(workers)
		for _, k := range kernels {
			if k.name == "SSSP" && workers > 1 {
				continue // its CAS races move what its queues hold from call to call
			}
			run := func() {
				if err := k.run(); err != nil {
					t.Fatal(err)
				}
			}
			// Both epochs warm first: a worker's buffers and arenas grow
			// to the largest share it ever drew, whichever epoch drew it.
			for range 3 {
				for _, e := range []Epoch{delta, flat} {
					inst.BindEpoch(e)
					for range roots {
						run()
					}
				}
			}
			per := func(e Epoch) uint64 {
				inst.BindEpoch(e)
				return alloctest.BytesPerRun(len(roots), run)
			}
			onDelta, onFlat := per(delta), per(flat)
			t.Logf("%d workers: warm %s %d B/call on %d delta rows, %d B flat", workers, k.name, onDelta, delta.out.DeltaRows(), onFlat)
			if onDelta > onFlat {
				t.Fatalf("%d workers: a warm %s allocates %d B on delta rows, %d B on the same epoch flat", workers, k.name, onDelta, onFlat)
			}
		}
	}
}

// A warm maintain diffs delta rows and reads them through its row
// buffer: over a stream whose epochs hold hub rows as deltas,
// IncrementalPageRank and IncrementalWCC allocate no more per maintain
// than over the same stream with every epoch compacted. The stream
// deletes 32 entries and puts them back reweighed, over and over, as
// TestMaintainAllocBudget's does, on kron-13, where it never compacts.
func TestWarmMaintainOnDeltaRowsAllocatesAsOnFlat(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	maintain := func(flat bool) (best uint64, deltaRounds int) {
		inst := load(t, engine(), kron(13, 5), 8)
		inst.m.SetTracing(false)
		apply, undo := hubStream(inst.Epoch().Out(), xrand.New(17), 32)
		best = math.MaxUint64
		var ms runtime.MemStats
		for round := 0; round < 8; round++ {
			b := apply
			if round%2 == 1 {
				b = undo
			}
			if _, err := inst.Mutate(b); err != nil {
				t.Fatal(err)
			}
			if flat { // BindEpoch would drop the baselines
				f := flatEpoch(inst.Epoch())
				inst.out, inst.in = f.out, f.in
			} else if inst.out.DeltaRows() > 0 {
				deltaRounds++
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
		return best, deltaRounds
	}
	onDelta, rounds := maintain(false)
	onFlat, _ := maintain(true)
	t.Logf("warm IncrementalPageRank + IncrementalWCC: %d B on delta rows (%d of 8 epochs held them), %d B flat", onDelta, rounds, onFlat)
	if rounds < 8 {
		t.Fatalf("%d of 8 epochs held delta rows; the wall measures them", rounds)
	}
	if onDelta > onFlat {
		t.Fatalf("a warm maintain allocates %d B on delta rows, %d B on the same stream flat", onDelta, onFlat)
	}
}
