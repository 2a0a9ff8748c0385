// Cluster walls: the modeled distributed-memory mode (Spec.Nodes +
// Spec.Partition) may only move modeled time. That sharded runs give
// outputs bit-equal to shared memory on all six kernels is part of
// TestScheduleIndependence (its nodes rows); here Nodes=1 must
// reproduce the single-box trace byte for byte, modeled durations and
// all trace fields included, and the knobs must reach the network
// model through the harness.
package all

import (
	"testing"

	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/gap"
	"github.com/hpcl-repro/epg/internal/harness"
	"github.com/hpcl-repro/epg/internal/kronecker"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// TestClusterNodesOneTraceByteIdentical: a machine given SetCluster(1,
// ...) must leave no trace of the cluster model — every Region field
// (durations, costs, NetBytes, utilization) byte-identical to a
// machine that never saw the knob. This is the Nodes=1 half of the
// acceptance criterion, checked at full trace granularity rather than
// through the duration summaries.
func TestClusterNodesOneTraceByteIdentical(t *testing.T) {
	g, root := determinismGraph(t)
	trace := func(cluster bool) []simmachine.Region {
		m := simmachine.New(simmachine.Haswell72(), 8)
		m.SetWorkers(2)
		if cluster {
			// An owner table alongside nodes=1: the table must be inert
			// too, not just tolerated.
			m.SetCluster(1, make([]int16, g.NumVertices))
		}
		inst := (&engines.Engine{Decl: &gap.Decl}).LoadSimple(g, m).(*gap.Instance)
		inst.BuildStructure()
		m.Reset()
		if _, err := inst.BFS(root); err != nil {
			t.Fatal(err)
		}
		if _, err := inst.PageRank(engines.DefaultPROpts()); err != nil {
			t.Fatal(err)
		}
		out := make([]simmachine.Region, len(m.Trace()))
		copy(out, m.Trace())
		return out
	}
	off, on := trace(false), trace(true)
	if len(off) != len(on) {
		t.Fatalf("region count differs: %d without cluster, %d with nodes=1", len(off), len(on))
	}
	for i := range off {
		if off[i] != on[i] {
			t.Fatalf("region %d differs at nodes=1: %+v vs %+v", i, off[i], on[i])
		}
	}
}

// TestSpecClusterKnobEndToEnd drives the harness with the cluster
// knobs: per-trial modeled measurements under Nodes=4 must be
// identical across worker counts for both partitions; the knob must
// actually reach the network model (modeled seconds move, NetBytes
// lands in the results); Nodes<=1 must reproduce the single-box
// numbers bitwise with zero NetBytes; and malformed specs are
// rejected.
func TestSpecClusterKnobEndToEnd(t *testing.T) {
	el := kronecker.Generate(kronecker.Params{Scale: 9, Seed: 7})
	r := harness.NewRunner(Registry())
	run := func(workers, nodes int, partition string) ([]float64, []float64) {
		spec := coreSpec(engines.BFS, workers)
		spec.Nodes = nodes
		spec.Partition = partition
		rs, err := r.Run(spec, el)
		if err != nil {
			t.Fatal(err)
		}
		secs := make([]float64, len(rs))
		net := make([]float64, len(rs))
		for i, res := range rs {
			secs[i] = res.AlgorithmSec
			net[i] = res.NetBytes
		}
		return secs, net
	}
	single, singleNet := run(1, 0, "")
	for _, n := range singleNet {
		if n != 0 {
			t.Fatalf("single-box run recorded NetBytes %v", n)
		}
	}
	// Nodes=1 (with either partition name) is the single-box run.
	for _, partition := range []string{"", core.Partition1D, core.Partition2D} {
		secs, net := run(1, 1, partition)
		sameFloat64sBitwise(t, "nodes=1 seconds", single, secs)
		sameFloat64sBitwise(t, "nodes=1 net bytes", singleNet, net)
	}
	for _, partition := range []string{core.Partition1D, core.Partition2D} {
		base, baseNet := run(1, 4, partition)
		for _, workers := range []int{2, 4} {
			secs, net := run(workers, 4, partition)
			sameFloat64sBitwise(t, partition+" cluster seconds", base, secs)
			sameFloat64sBitwise(t, partition+" cluster net bytes", baseNet, net)
		}
		// The network model is live end-to-end: sharding moves modeled
		// time and records traffic.
		moved := false
		for i := range base {
			if base[i] != single[i] {
				moved = true
			}
		}
		if !moved {
			t.Errorf("%s: nodes=4 modeled seconds identical to single box — Spec.Nodes not reaching the network model", partition)
		}
		traffic := 0.0
		for _, n := range baseNet {
			traffic += n
		}
		if traffic <= 0 {
			t.Errorf("%s: nodes=4 recorded no NetBytes", partition)
		}
	}

	bad := coreSpec(engines.BFS, 1)
	bad.Nodes = core.MaxNodes + 1
	if _, err := r.Run(bad, el); err == nil {
		t.Error("node count above MaxNodes accepted")
	}
	bad = coreSpec(engines.BFS, 1)
	bad.Nodes = -1
	if _, err := r.Run(bad, el); err == nil {
		t.Error("negative node count accepted")
	}
	bad = coreSpec(engines.BFS, 1)
	bad.Partition = "hilbert"
	if _, err := r.Run(bad, el); err == nil {
		t.Error("unknown partition scheme accepted")
	}
}
