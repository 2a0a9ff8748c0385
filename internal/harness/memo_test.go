package harness

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
)

// modeled drops the one wall-clock column of rs, leaving what must
// repeat bit for bit.
func modeled(rs []core.Result) []core.Result {
	rs = slices.Clone(rs)
	for i := range rs {
		rs[i].WallSec = 0
	}
	return rs
}

func memoSpec(alg engines.Algorithm, threads int) core.Spec {
	return core.Spec{Dataset: "kron-9", Algorithm: alg, Threads: threads, Roots: 2, Seed: 42, SyncSSSP: true}
}

// An edge list edited in place between two Runs is homogenized again:
// the runner's memo is keyed by identity but checked by content, so the
// second Run sees the new weight and reports different SSSP rows.
func TestRunRehomogenizesAnEditedEdgeList(t *testing.T) {
	el, err := ResolveDataset("kron-9", DatasetOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	r := testRunner()
	spec := memoSpec(engines.SSSP, 8)
	before, err := r.Run(spec, el)
	if err != nil {
		t.Fatal(err)
	}
	g := r.lastG
	// Make one edge at the first root nearly free: paths through it get
	// shorter, so the synchronous SSSP relaxes differently.
	root := before[0].Root
	i := slices.IndexFunc(el.Edges, func(e graph.Edge) bool { return e.Src == root || e.Dst == root })
	el.Edges[i].W = 1e-6
	after, err := r.Run(spec, el)
	if err != nil {
		t.Fatal(err)
	}
	if r.lastG == g {
		t.Fatal("an edge list edited in place was not homogenized again")
	}
	if reflect.DeepEqual(modeled(before), modeled(after)) {
		t.Error("editing a weight in place left every SSSP row unchanged")
	}
}

// A new edge list with the same content gives the same rows.
func TestRunOnACopiedEdgeListRepeats(t *testing.T) {
	el, err := ResolveDataset("kron-9", DatasetOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	r := testRunner()
	for _, alg := range []engines.Algorithm{engines.SSSP, engines.PageRank} {
		spec := memoSpec(alg, 8)
		want, err := r.Run(spec, el)
		if err != nil {
			t.Fatal(err)
		}
		cp := *el
		cp.Edges = slices.Clone(el.Edges)
		got, err := r.Run(spec, &cp)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(modeled(want), modeled(got)) {
			t.Errorf("%s: a copy of the edge list gives different rows", alg)
		}
	}
}

// A Runner keeps one instance per engine and rebinds it to every Run's
// graph and machine. Running el1, then a smaller directed el2, then el1
// again — compress on and off, PowerGraph cut at 8 and 64 shards, a
// streaming phase that mutates GAP's instance — returns the rows a fresh
// Runner returns for each.
func TestRunnerAcrossEdgeListsEqualsFresh(t *testing.T) {
	el1, err := ResolveDataset("kron-9", DatasetOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	el2, err := ResolveDataset("kron-8", DatasetOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	el2.Directed = true
	bfs := memoSpec(engines.BFS, 8)
	bfs.Compress = true
	stream := memoSpec(engines.PageRank, 8)
	stream.Engines = []string{"GAP"}
	stream.Mutations = &core.MutationSchedule{Batches: 2, BatchSize: 32, DeleteFrac: 0.25, Seed: 3}
	specs := []core.Spec{bfs, memoSpec(engines.SSSP, 64), stream, memoSpec(engines.PageRank, 8),
		memoSpec(engines.CDLP, 64), memoSpec(engines.LCC, 8), memoSpec(engines.BFS, 8)}
	r := testRunner()
	for i, el := range []*graph.EdgeList{el1, el2, el1} {
		for _, s := range specs {
			got, err := r.Run(s, el)
			if err != nil {
				t.Fatal(err)
			}
			want, err := testRunner().Run(s, el)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(modeled(want), modeled(got)) {
				t.Errorf("edge list %d: %s at %d threads (compress %v) differs from a fresh Runner's", i, s.Algorithm, s.Threads, s.Compress)
			}
		}
	}
}

// Concurrent Runs on one Runner share its graph and, through it, the
// engines' derived structures — PowerGraph's cut at three shard counts
// evicting one another among them — and each returns what it returns
// alone. Run under -race.
func TestConcurrentRunsEqualSerial(t *testing.T) {
	el, err := ResolveDataset("kron-9", DatasetOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	bfs := memoSpec(engines.BFS, 8)
	bfs.Compress = true
	specs := []core.Spec{bfs, memoSpec(engines.SSSP, 16), memoSpec(engines.PageRank, 8), memoSpec(engines.CDLP, 32)}
	want := make([][]core.Result, len(specs))
	for i, s := range specs {
		rs, err := testRunner().Run(s, el)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = modeled(rs)
	}
	r := testRunner()
	for round := 0; round < 3; round++ {
		got := make([][]core.Result, len(specs))
		var wg sync.WaitGroup
		for i, s := range specs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rs, err := r.Run(s, el)
				if err != nil {
					t.Error(err)
				}
				got[i] = modeled(rs)
			}()
		}
		wg.Wait()
		for i, s := range specs {
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Errorf("round %d: concurrent %s at %d threads differs from a serial run", round, s.Algorithm, s.Threads)
			}
		}
	}
}

// Two identical sweeps return identical slices: points come in the
// run's engine order, not a map's.
func TestSweepOrderRepeats(t *testing.T) {
	el, err := ResolveDataset("kron-9", DatasetOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	r := testRunner()
	spec := memoSpec(engines.BFS, 1)
	want, err := r.Sweep(spec, el, []int{1, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		got, err := r.Sweep(spec, el, []int{1, 4}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("sweep %d: points %v, first sweep %v", i+2, got, want)
		}
	}
}
