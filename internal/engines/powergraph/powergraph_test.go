package powergraph

import (
	"errors"
	"testing"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/kronecker"
	"github.com/hpcl-repro/epg/internal/simmachine"
	"github.com/hpcl-repro/epg/internal/verify"
)

func machine(threads int) *simmachine.Machine {
	return simmachine.New(simmachine.Haswell72(), threads)
}

// engine is the declared engine with no knobs requested.
func engine() *engines.Engine { return &engines.Engine{Decl: &Decl} }

func TestMetadata(t *testing.T) {
	e := engine()
	if e.Name != "PowerGraph" {
		t.Errorf("name = %q", e.Name)
	}
	if e.SeparateConstruction {
		t.Error("PowerGraph ingests and partitions while reading")
	}
	if e.Has(engines.BFS) {
		t.Error("PowerGraph provides no BFS reference implementation")
	}
}

func TestBFSUnsupported(t *testing.T) {
	el := kronecker.Generate(kronecker.Params{Scale: 8, Seed: 1})
	inst, err := engine().Load(el, machine(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.BFS(0, nil); !errors.Is(err, engines.ErrUnsupported) {
		t.Errorf("BFS err = %v, want ErrUnsupported", err)
	}
}

func TestVertexCutProperties(t *testing.T) {
	el := kronecker.Generate(kronecker.Params{Scale: 10, Seed: 5})
	inst, err := engine().Load(el, machine(8))
	if err != nil {
		t.Fatal(err)
	}
	pg := inst.(*Instance)
	// Every directed edge placed exactly once.
	var placed int64
	for _, shard := range pg.shards {
		placed += int64(len(shard))
	}
	if placed != pg.out.NumEdges() {
		t.Errorf("placed %d edges, graph has %d", placed, pg.out.NumEdges())
	}
	// Shard loads balanced within 2x of the mean (greedy cut).
	mean := float64(placed) / float64(len(pg.shards))
	for s, shard := range pg.shards {
		if float64(len(shard)) > 2*mean+64 {
			t.Errorf("shard %d holds %d edges, mean %.0f", s, len(shard), mean)
		}
	}
	// Replication factor: at least 1, and well below the shard
	// count (greedy placement reuses endpoints' shards).
	rf := pg.ReplicationFactor()
	if rf < 1 {
		t.Errorf("replication factor %v < 1", rf)
	}
	if rf > float64(len(pg.shards)) {
		t.Errorf("replication factor %v exceeds shard count %d", rf, len(pg.shards))
	}
}

func TestGreedyCutBeatsWorstCase(t *testing.T) {
	// On a star graph the hub must be replicated, but leaves
	// should not be: replication factor stays near 1.
	n := 512
	el := &graph.EdgeList{NumVertices: n, Directed: true}
	for i := 1; i < n; i++ {
		el.Edges = append(el.Edges, graph.Edge{Src: 0, Dst: graph.VID(i)})
	}
	inst, err := engine().Load(el, machine(8))
	if err != nil {
		t.Fatal(err)
	}
	pg := inst.(*Instance)
	if rf := pg.ReplicationFactor(); rf > 1.2 {
		t.Errorf("star-graph replication factor %v, want near 1 (only the hub replicates)", rf)
	}
}

func TestGhostSyncCharged(t *testing.T) {
	el := kronecker.Generate(kronecker.Params{Scale: 9, Seed: 2})
	m := machine(8)
	inst, err := engine().Load(el, m)
	if err != nil {
		t.Fatal(err)
	}
	pg := inst.(*Instance)
	before := m.Elapsed()
	pg.syncGhosts()
	if m.Elapsed() <= before {
		t.Error("ghost sync charged no time")
	}
}

func TestSSSPAndWCCCorrect(t *testing.T) {
	el := kronecker.Generate(kronecker.Params{Scale: 9, Seed: 7})
	p := verify.Prepare(el)
	inst, err := engine().Load(el, machine(8))
	if err != nil {
		t.Fatal(err)
	}
	var root graph.VID
	for v := 0; v < p.Out.NumVertices; v++ {
		if p.Out.Degree(graph.VID(v)) > 1 {
			root = graph.VID(v)
			break
		}
	}
	sp, err := inst.SSSP(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.ValidateSSSP(p, sp, verify.SSSP(p, root)); err != nil {
		t.Error(err)
	}
	wc, err := inst.WCC(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.ValidateWCC(wc, verify.WCC(p)); err != nil {
		t.Error(err)
	}
}

func TestShardCountCapped(t *testing.T) {
	el := kronecker.Generate(kronecker.Params{Scale: 6, Seed: 1})
	inst, err := engine().Load(el, machine(128))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(inst.(*Instance).shards); got > maxShards {
		t.Errorf("shards = %d, cap is %d", got, maxShards)
	}
}

func TestFrameworkOverheadVisible(t *testing.T) {
	// The GAS machinery must make PowerGraph's SSSP markedly
	// slower (modeled) than GAP-grade relaxation on small graphs —
	// the paper's explanation for PowerGraph's scale-22 numbers.
	el := kronecker.Generate(kronecker.Params{Scale: 11, Seed: 4})
	m := machine(32)
	inst, err := engine().Load(el, m)
	if err != nil {
		t.Fatal(err)
	}
	start := m.Elapsed()
	if _, err := inst.SSSP(1, nil); err != nil {
		t.Fatal(err)
	}
	pgTime := m.Elapsed() - start
	// One GAP-grade relaxation sweep of the whole graph.
	mRef := machine(32)
	mRef.ParallelFor(int(inst.(*Instance).out.NumEdges()), 1024, simmachine.Dynamic, func(lo, hi int, w *simmachine.W) {
		w.Charge(simmachine.Cost{Cycles: 9, Bytes: 14}.Scale(float64(hi - lo)))
	})
	if pgTime < 3*mRef.Elapsed() {
		t.Errorf("PowerGraph SSSP (%v) less than 3x a single lean sweep (%v): GAS overhead missing", pgTime, mRef.Elapsed())
	}
}
