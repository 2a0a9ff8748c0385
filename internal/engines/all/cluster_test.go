// Cluster wall: the modeled distributed-memory mode (Spec.Nodes +
// Spec.Partition) may only move modeled time. That sharded runs give
// outputs bit-equal to shared memory on all six kernels is FuzzSpec's
// property 2, and that the knobs reach the network model through the
// harness is TestKnobsLive's nodes and partition rows; here a machine
// at one node must reproduce the single-box trace byte for byte,
// modeled durations and all trace fields included.
package all

import (
	"testing"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/gap"
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
		if _, err := inst.BFS(root, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := inst.PageRank(engines.DefaultPROpts(), nil); err != nil {
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
