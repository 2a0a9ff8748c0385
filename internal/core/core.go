// Package core defines the experiment model of easy-parallel-graph-*:
// the five framework phases, experiment specifications, root
// selection, and the normalized result records every later stage
// (parsing, analysis, reporting) consumes.
package core

import (
	"fmt"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/xrand"
)

// Phase names one of the five framework phases of the paper's Fig. 1.
// Each corresponds to a single shell command in the original.
type Phase string

// The five phases.
const (
	PhaseInstall    Phase = "install"
	PhaseHomogenize Phase = "homogenize"
	PhaseRun        Phase = "run"
	PhaseParse      Phase = "parse"
	PhaseAnalyze    Phase = "analyze"
)

// Phases lists the framework phases in execution order.
var Phases = []Phase{PhaseInstall, PhaseHomogenize, PhaseRun, PhaseParse, PhaseAnalyze}

// DefaultRoots is the number of search roots per graph, following the
// Graph500 specification the paper adopts (PageRank simply runs this
// many times).
const DefaultRoots = 32

// Spec describes one experiment: a dataset, an algorithm, a set of
// engines, and the execution parameters.
type Spec struct {
	// Dataset is a human-readable name ("kron-22", "dota-league").
	Dataset string
	// Algorithm to run.
	Algorithm engines.Algorithm
	// Engines by name; empty means every engine that supports the
	// algorithm.
	Engines []string
	// Threads is the virtual thread count (the paper's headline
	// configuration is 32).
	Threads int
	// Workers bounds the real goroutines executing region bodies;
	// 0 means min(Threads, GOMAXPROCS). Results and modeled durations
	// never depend on it — it only changes wall-clock time.
	Workers int
	// Roots is the number of roots/trials; 0 means DefaultRoots.
	Roots int
	// Seed drives root selection.
	Seed uint64
	// MeasurePower enables RAPL-style metering per root.
	MeasurePower bool
	// Sched overrides the scheduling policy of every parallel region
	// (SchedStatic, SchedDynamic, SchedSteal, or SchedNUMA). Empty
	// (SchedAuto) keeps each engine's own per-region choice — the
	// paper's configuration, where e.g. Graph500 is static and GAP
	// dynamic. The override changes both the real chunk assignment
	// and the modeled virtual-lane accounting.
	Sched string
	// Sockets is the virtual socket count of the locality model: the
	// steal simulation charges remote-steal and remote-chunk-access
	// penalties whenever a lane takes a chunk homed on another
	// socket's block of lanes, and the real work-stealing executor
	// uses the same count for its two-level victim order. 0 keeps one
	// virtual socket — no locality penalties, so SchedSteal retains
	// its historical durations and SchedNUMA coincides with it — and
	// lets the real executor derive a topology from GOMAXPROCS.
	Sockets int
	// RemotePenalty overrides the modeled remote-chunk-access
	// multiplier (the factor on a chunk's DRAM bytes when executed
	// off its home socket). 0 keeps the machine model's default;
	// values in (0, 1) are rejected — remote memory is never faster
	// than local.
	RemotePenalty float64
	// Grain selects the region grain policy. Empty or GrainFixed
	// keeps each engine's hand-picked per-region grain (the historical
	// behavior); GrainAdaptive derives every kernel region's grain
	// from the live region size and the virtual thread count
	// (frontier-proportional: about eight chunks per lane whatever the
	// frontier size), which keeps the steal policies live on the small
	// BFS/SSSP frontiers where fixed grains leave nothing to steal.
	// The chunk-count function is deterministic in (region size,
	// Threads), so outputs and modeled durations remain
	// schedule-independent.
	Grain string
	// Placement selects the locality model for resident data. Empty
	// or PlacementNone charges remote-access penalties for *stolen*
	// chunks only (the historical model); PlacementFirstTouch
	// additionally records first-touch socket ownership per page of
	// the region index space and charges RemotePenalty bytes whenever
	// a chunk — under any policy, static included — reads pages first
	// touched on another socket. Requires Sockets > 1 to have any
	// effect.
	Placement string
	// FreqState selects the modeled DVFS operating point (power
	// package): FreqTurbo (empty/default) keeps the calibration every
	// artifact historically used; FreqBalanced and FreqPowersave scale
	// the core clocks down and the CPU-plane dynamic power constants
	// superlinearly down (voltage–frequency coupling), stretching
	// compute-bound regions while memory-bound ones ride the unchanged
	// DRAM roofline. The scalings reach both the machine model and the
	// power constants, so modeled seconds AND joules move together —
	// the axis the energy study sweeps.
	FreqState string
	// Compress switches GAP and Graph500 to the delta+varint
	// byte-compressed adjacency (graph.CompressedCSR) in their BFS and
	// PageRank inner loops, decoding neighbors on the fly. The cost
	// model charges Model.DecodeCyclesPerByte per compressed byte and
	// routes the compressed bytes (not the raw 4 B/edge) into the
	// bandwidth, placement, and energy terms — the modeled roofline
	// decides where compression wins. Outputs are identical to the
	// uncompressed run; engines without a compressed path ignore the
	// knob.
	Compress bool
	// SyncSSSP switches GAP's delta-stepping and GraphBIG's
	// relaxation to their synchronous bucket/round-barrier modes,
	// making their parents, relaxation counts, and modeled durations
	// schedule-independent (the determinism wall). Engines whose SSSP
	// is already synchronous (GraphMat, PowerGraph) ignore it.
	SyncSSSP bool
	// Nodes is the virtual cluster node count of the modeled
	// distributed-memory mode: lanes group into nodes, the graph is
	// partitioned across them (Partition), and inter-node traffic is
	// charged through Model.NetBytesFactor/NetLatencyCycles with
	// messages batched per superstep. 0 or 1 keeps the single-box
	// model — the trace is byte-identical to a spec without the knob.
	// Outputs never depend on it; only modeled durations move.
	Nodes int
	// Partition selects how the cluster partitions the graph when
	// Nodes > 1: Partition1D (empty default) assigns contiguous
	// blocked vertex ranges; Partition2D derives per-vertex homes from
	// the greedy streaming vertex-cut (each vertex lives on its lowest
	// replica shard), the PowerGraph-style edge partition.
	Partition string
	// Mutations, when non-nil, appends a streaming phase after the
	// baseline trials: deterministic batches of edge inserts/deletes
	// are applied through the engine's Streamer hook and the result is
	// maintained incrementally, conformance-checked bit-equal against a
	// full recompute on the post-batch graph. Only PageRank and WCC
	// support incremental maintenance; engines without the hook get a
	// knob-drop warning and skip the phase.
	Mutations *MutationSchedule
}

// MutationSchedule parameterizes the streaming phase of a spec: how
// many batches, how many operations per batch, the delete fraction,
// and the seed driving batch generation. Batches are generated on the
// homogenized graph, so every engine sees the identical stream.
type MutationSchedule struct {
	// Batches is the number of successive mutation batches (>= 1).
	Batches int
	// BatchSize is the number of operations per batch (>= 1).
	BatchSize int
	// DeleteFrac is the probability each operation is a delete of an
	// existing edge (the rest are random inserts); in [0, 1].
	DeleteFrac float64
	// Seed drives batch generation, independently of Spec.Seed.
	Seed uint64
}

// The legal names of the string-valued knobs; each Spec field's doc
// comment says what they select. The empty string is always the
// default.
const (
	SchedAuto    = "" // each engine's own per-region policy
	SchedStatic  = "static"
	SchedDynamic = "dynamic"
	SchedSteal   = "steal"
	SchedNUMA    = "numa"

	GrainFixed    = "fixed" // default
	GrainAdaptive = "adaptive"

	PlacementNone       = "none" // default
	PlacementFirstTouch = "firsttouch"

	// The scalings live in the power package (power.FreqStates).
	FreqTurbo     = "turbo" // default
	FreqBalanced  = "balanced"
	FreqPowersave = "powersave"

	Partition1D = "1d" // default
	Partition2D = "2d"
)

// MaxNodes bounds Spec.Nodes: the 2D partitioner's replica sets are
// one 64-bit mask (graph.MaxVertexCutShards).
const MaxNodes = 64

// NumRoots returns the effective root count.
func (s Spec) NumRoots() int {
	if s.Roots > 0 {
		return s.Roots
	}
	return DefaultRoots
}

// Validate rejects malformed specs: the identity fields here, every
// knob against its Knobs entry.
func (s Spec) Validate() error {
	if s.Dataset == "" {
		return fmt.Errorf("core: spec missing dataset")
	}
	if s.Algorithm == "" {
		return fmt.Errorf("core: spec missing algorithm")
	}
	if s.Threads < 1 {
		return fmt.Errorf("core: spec needs threads >= 1, got %d", s.Threads)
	}
	if s.Roots < 0 {
		return fmt.Errorf("core: spec needs roots >= 0, got %d", s.Roots)
	}
	for _, k := range Knobs {
		if err := k.check(s); err != nil {
			return err
		}
	}
	if ms := s.Mutations; ms != nil {
		if ms.Batches < 1 {
			return fmt.Errorf("core: mutation schedule needs batches >= 1, got %d", ms.Batches)
		}
		if ms.BatchSize < 1 {
			return fmt.Errorf("core: mutation schedule needs batch size >= 1, got %d", ms.BatchSize)
		}
		if ms.DeleteFrac < 0 || ms.DeleteFrac > 1 {
			return fmt.Errorf("core: mutation delete fraction must be in [0, 1], got %g", ms.DeleteFrac)
		}
		switch s.Algorithm {
		case engines.PageRank, engines.WCC:
		default:
			return fmt.Errorf("core: streaming mutations support pr and wcc, not %s", s.Algorithm)
		}
	}
	return nil
}

// SelectRoots picks count distinct search roots with degree greater
// than one, as the Graph500 specification requires. Selection is
// deterministic in the seed. If the graph has fewer qualifying
// vertices than requested, all of them are returned.
func SelectRoots(csr *graph.CSR, count int, seed uint64) []graph.VID {
	var candidates []graph.VID
	for v := 0; v < csr.NumVertices; v++ {
		if csr.Degree(graph.VID(v)) > 1 {
			candidates = append(candidates, graph.VID(v))
		}
	}
	if len(candidates) <= count {
		return candidates
	}
	r := xrand.New(seed ^ 0x9007)
	r.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	return candidates[:count]
}

// Result is one measured run: a single (engine, algorithm, root)
// execution with its phase breakdown. Times are in seconds.
type Result struct {
	Engine    string
	Dataset   string
	Algorithm engines.Algorithm
	Threads   int
	Trial     int
	Root      graph.VID

	// Phase breakdown (modeled machine time). FileRead and
	// Construction are zero for phases an engine does not expose
	// separately; HasConstruction records whether Construction is
	// meaningful (Figs. 2/3 omit engines without it).
	FileReadSec     float64
	ConstructionSec float64
	AlgorithmSec    float64
	HasConstruction bool

	// WallSec is the real elapsed time of the algorithm phase in
	// this process — reported alongside, never mixed with modeled
	// time.
	WallSec float64

	// Algorithm-specific outputs.
	Iterations    int   // PageRank/CDLP
	EdgesExamined int64 // traversals (TEPS basis)

	// Streaming-phase fields (Spec.Mutations). Batch is the 1-based
	// batch index, zero on baseline rows. MutateSec is the modeled cost
	// of applying the batch to the resident structures, MaintainSec the
	// incremental maintenance, and RecomputeSec the displaced
	// alternative — rebuild plus cold recompute on the post-batch graph
	// — measured on a fresh machine with the same spec knobs.
	Batch        int
	MutateSec    float64
	MaintainSec  float64
	RecomputeSec float64

	// NetBytes is the modeled inter-node message traffic of the
	// algorithm phase (zero on single-box specs; see Spec.Nodes).
	NetBytes float64

	// Power metering (zero unless requested).
	CPUJoules   float64
	RAMJoules   float64
	AvgCPUWatts float64
	AvgRAMWatts float64
}

// TEPS returns traversed edges per second for traversal kernels, the
// Graph500's figure of merit.
func (r Result) TEPS() float64 {
	if r.AlgorithmSec <= 0 || r.EdgesExamined <= 0 {
		return 0
	}
	return float64(r.EdgesExamined) / r.AlgorithmSec
}

// Key returns a stable grouping key for analysis.
func (r Result) Key() string {
	return fmt.Sprintf("%s/%s/%s/t%d", r.Dataset, r.Algorithm, r.Engine, r.Threads)
}
