package study

import (
	"fmt"
	"time"

	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/gap"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/harness"
	"github.com/hpcl-repro/epg/internal/power"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// schedCell is one GAP kernel run under one setting of the knobs.
type schedCell struct {
	spec     core.Spec       // the knobs, kernel and thread count, as the table labels them
	workers  int             // real pool workers: min(threads, GOMAXPROCS)
	modeled  float64         // seconds on the modeled machine
	work     simmachine.Cost // charged work summed over the run's regions
	netBytes float64         // inter-node traffic summed over the same regions
	energy   power.Reading   // the power model integrated over the same trace
	wall     float64         // seconds this host took
}

// onOff labels the adjacency representation: raw CSR or delta+varint.
var onOff = map[bool]string{false: "off", true: "on"}

// Sched is FIG_sched_study_ci.csv: modeled time and energy of GAP BFS
// and PageRank by scheduling policy x grain x placement x frequency x
// compress x cluster x sockets x threads, pinned to kron-12.
// `make benchfig` writes the same table at kron-17 with the host columns
// live (FIG_sched_study.csv, untracked). dynamic against steal along the
// thread axis shows where the shared chunk counter serializes and
// stealing recovers — the paper's OpenMP schedule(dynamic) against
// Cilk-style runtimes; steal against numa along the socket axis shows
// what flat stealing pays across sockets; ARCHITECTURE.md has the model
// behind each of the other axes.
//
// cycles, bytes and atomics are the charged work summed over every
// region at full precision, so a penalty charge (remote steal, remote
// first-touch read, dynamic claim atomic) moves them even when rounding
// or an off-critical-path lane hides it from modeled_s. net_bytes is
// what crossed the modeled wire; it is not part of bytes, which stays
// DRAM traffic including the network surcharge. The joules integrate
// the power model over the same trace, and edp_js is total joules x
// modeled seconds. Drift therefore means the cost model, a scheduler
// simulation, the grain policy, the placement model, a network term or
// the power calibration moved.
var Sched = declare("sched", "FIG_sched_study_ci.csv", "kron-12", 1,
	[]Column[schedCell]{
		{"kernel", func(c *schedCell) any { return string(c.spec.Algorithm) }, false},
		{"sched", func(c *schedCell) any { return c.spec.Sched }, false},
		{"grain", func(c *schedCell) any { return c.spec.Grain }, false},
		{"placement", func(c *schedCell) any { return c.spec.Placement }, false},
		{"freq", func(c *schedCell) any { return c.spec.FreqState }, false},
		{"compress", func(c *schedCell) any { return onOff[c.spec.Compress] }, false},
		{"threads", func(c *schedCell) any { return c.spec.Threads }, false},
		{"sockets", func(c *schedCell) any { return c.spec.Sockets }, false},
		{"nodes", func(c *schedCell) any { return c.spec.Nodes }, false},
		{"partition", func(c *schedCell) any { return c.spec.Partition }, false},
		{"workers", func(c *schedCell) any { return c.workers }, true},
		{"modeled_s", func(c *schedCell) any { return c.modeled }, false},
		{"cycles", func(c *schedCell) any { return c.work.Cycles }, false},
		{"bytes", func(c *schedCell) any { return c.work.Bytes }, false},
		{"net_bytes", func(c *schedCell) any { return c.netBytes }, false},
		{"atomics", func(c *schedCell) any { return c.work.Atomics }, false},
		{"cpu_joules", func(c *schedCell) any { return c.energy.CPUJoules }, false},
		{"ram_joules", func(c *schedCell) any { return c.energy.RAMJoules }, false},
		{"total_joules", func(c *schedCell) any { return c.energy.TotalJoules() }, false},
		{"edp_js", func(c *schedCell) any { return c.energy.EDP() }, false},
		{"wall_s", func(c *schedCell) any { return c.wall }, true},
	}, schedCells)

// schedThreads is the paper's Fig. 5/6 x-axis plus the full machine.
var schedThreads = []int{1, 2, 4, 8, 16, 32, 64, 72}

// schedPolicies is every value of the sched knob, in table order.
var schedPolicies = []string{core.SchedStatic, core.SchedDynamic, core.SchedSteal, core.SchedNUMA}

// schedConfigs is the (grain, placement, frequency, compress, cluster)
// axis: selected settings rather than the cross product, which bounds
// the file and the gate's regeneration time.
var schedConfigs = []core.Spec{
	{Grain: "fixed", Placement: "none", FreqState: "turbo"},
	{Grain: "adaptive", Placement: "none", FreqState: "turbo"},
	// The headline locality configuration, then its DVFS sweep.
	{Grain: "adaptive", Placement: "firsttouch", FreqState: "turbo"},
	{Grain: "adaptive", Placement: "firsttouch", FreqState: "balanced"},
	{Grain: "adaptive", Placement: "firsttouch", FreqState: "powersave"},
	// Compressed adjacency: the baseline isolates the decode-cycles-for-
	// bytes trade; on the headline configuration the smaller resident
	// footprint also shrinks the remotely-placed byte stream.
	{Grain: "fixed", Placement: "none", FreqState: "turbo", Compress: true},
	{Grain: "adaptive", Placement: "firsttouch", FreqState: "turbo", Compress: true},
	// Modeled cluster: the baseline 1D-blocked across 2 nodes and
	// vertex-cut across 4, which puts every network cost term and both
	// partitioners under the gate.
	{Grain: "fixed", Placement: "none", FreqState: "turbo", Nodes: 2, Partition: "1d"},
	{Grain: "fixed", Placement: "none", FreqState: "turbo", Nodes: 4, Partition: "2d"},
}

// schedSockets is the socket axis of one (policy, placement) pair.
// Without placement static and dynamic have no locality path, so only
// their sockets=1 rows exist while the steal policies sweep 1/2/4. With
// first-touch placement every policy pays for locality and sweeps 2/4:
// on one socket placement is inert, the rows would repeat the "none" ones.
func schedSockets(policy, placement string) []int {
	if placement == "firsttouch" {
		return []int{2, 4}
	}
	if policy == "static" || policy == "dynamic" {
		return []int{1}
	}
	return []int{1, 2, 4}
}

// schedCells runs the matrix on el. Every cell loads the one homogenized
// graph and starts from the same root, on one machine renewed and one GAP
// instance bound again per cell.
func schedCells(el *graph.EdgeList, _ string) ([]schedCell, error) {
	g, err := graph.Homogenize(el)
	if err != nil {
		return nil, err
	}
	roots := core.SelectRoots(g.Out, 1, 1)
	if len(roots) == 0 {
		return nil, fmt.Errorf("graph has no root with degree > 1")
	}
	var m *simmachine.Machine
	var pconsts power.Constants
	inst := gap.Decl.New()
	var dst engines.Results // a cell keeps only its times
	var cells []schedCell
	for _, kernel := range []engines.Algorithm{engines.BFS, engines.PageRank} {
		for _, cfg := range schedConfigs {
			owner := cfg.Owners(g) // nil unless the cluster is vertex-cut
			for _, policy := range schedPolicies {
				for _, sockets := range schedSockets(policy, cfg.Placement) {
					for _, threads := range schedThreads {
						// One Spec per cell; the knob table turns it into the
						// machine and the engine, exactly as harness.Run does.
						spec := cfg
						spec.Dataset, spec.Algorithm = "sched-study", kernel
						spec.Sched, spec.Sockets, spec.Threads = policy, sockets, threads
						if err := spec.Validate(); err != nil {
							return nil, err
						}
						m, pconsts = spec.NewMachine(m, simmachine.Haswell72(), power.DefaultConstants(), owner)
						opts, dropped := spec.EngineOptions(&gap.Decl)
						if dropped != nil {
							return nil, fmt.Errorf("GAP dropped %v", dropped)
						}
						harness.Load(&gap.Decl, inst, opts, g, m)
						m.Reset()
						meter := power.NewRAPL(m, pconsts)
						meter.Start()
						start := time.Now()
						if _, err := engines.RunInto(inst, kernel, roots[0], &dst); err != nil {
							return nil, err
						}
						if spec.Nodes < 2 {
							spec.Nodes, spec.Partition = 1, "none" // how the table labels one box
						}
						c := schedCell{spec: spec, wall: time.Since(start).Seconds(), energy: meter.End(),
							workers: m.Workers(), modeled: m.Elapsed()}
						for _, reg := range m.Trace() {
							c.work.Add(reg.Cost)
							c.netBytes += reg.NetBytes
						}
						cells = append(cells, c)
					}
				}
			}
		}
	}
	return cells, nil
}
