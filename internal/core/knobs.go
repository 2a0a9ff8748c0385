package core

import (
	"fmt"
	"slices"
	"strings"
	"unsafe"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/parallel"
	"github.com/hpcl-repro/epg/internal/power"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// Knob declares one execution knob of a Spec — any field that is not
// the experiment's identity (dataset, algorithm, engines, threads,
// roots, seed, metering). Validation, the `epg run` flags, the machine
// and engine wiring, the drop warnings, the README table and the
// scheduling study's set-up are loops over Knobs, so a new knob is one
// Spec field plus one entry here.
type Knob struct {
	// Name is the `epg run` flag, the knob= key of a drop warning and
	// the README row; Help the one line the CLI and README print (a
	// back-quoted word names the flag's value, as in package flag).
	Name, Help string
	// NoFlag marks a knob `epg run` does not expose.
	NoFlag bool
	// Values lists a string knob's legal names, the default first where
	// it has a name; the empty string always selects the default.
	Values []string
	// Min and Max bound a numeric knob: 0 keeps the default, any other
	// value must lie in [Min, Max] (Max 0 means no upper bound).
	Min, Max float64
	// Field returns the address of the Spec field the knob owns; its
	// type (*string, *int, *float64, *bool, **MutationSchedule) decides
	// how the knob is checked and which kind of flag it becomes.
	Field func(*Spec) any

	// The hooks that make the knob take effect, nil where it has nothing
	// to do at that stage: Scale returns the model and power calibration
	// the machine is about to be built from, adjusted, Machine configures
	// the renewed machine (owner is Spec.Owners' table), and Engine
	// returns o with the one engines.Options field the knob stands for
	// set. They take the spec, and what they adjust, by value, so that
	// readying a machine or an engine's options leaves nothing on the
	// heap.
	Scale   func(s Spec, m simmachine.Model, p power.Constants) (simmachine.Model, power.Constants)
	Machine func(s Spec, m *simmachine.Machine, owner []int16)
	Engine  func(s Spec, o engines.Options) engines.Options
}

// Knobs is the knob table, in Spec field order.
var Knobs = []Knob{
	{
		Name: "workers", NoFlag: true, Min: 1,
		Help:  "real goroutines executing region bodies (0 = min(threads, GOMAXPROCS)); never changes results or modeled time",
		Field: func(s *Spec) any { return &s.Workers },
		Machine: func(s Spec, m *simmachine.Machine, _ []int16) {
			if s.Workers > 0 {
				m.SetWorkers(s.Workers)
			}
		},
	},
	{
		Name:   "sched",
		Help:   "force one scheduling policy onto every parallel region (default: each engine's own per-region choice)",
		Values: []string{SchedStatic, SchedDynamic, SchedSteal, SchedNUMA},
		Field:  func(s *Spec) any { return &s.Sched },
		Machine: func(s Spec, m *simmachine.Machine, _ []int16) {
			switch s.Sched {
			case SchedStatic:
				m.SetSchedOverride(simmachine.Static)
			case SchedDynamic:
				m.SetSchedOverride(simmachine.Dynamic)
			case SchedSteal:
				m.SetSchedOverride(simmachine.Steal)
			case SchedNUMA:
				m.SetSchedOverride(simmachine.NUMA)
			}
		},
	},
	{
		Name: "sockets", Min: 1,
		Help:  "virtual socket count of the locality model (0 = one socket, no penalties)",
		Field: func(s *Spec) any { return &s.Sockets },
		Machine: func(s Spec, m *simmachine.Machine, _ []int16) {
			if s.Sockets > 0 {
				m.SetSockets(s.Sockets)
			}
		},
	},
	{
		Name: "remote-penalty", Min: 1,
		Help:    "multiplier on a chunk's DRAM bytes when it runs off its home socket (0 = model default)",
		Field:   func(s *Spec) any { return &s.RemotePenalty },
		Machine: func(s Spec, m *simmachine.Machine, _ []int16) { m.SetRemotePenalty(s.RemotePenalty) },
	},
	{
		Name:   "grain",
		Help:   "region grain policy: each engine's hand-picked grains, or frontier-proportional re-chunking",
		Values: []string{GrainFixed, GrainAdaptive},
		Field:  func(s *Spec) any { return &s.Grain },
		Machine: func(s Spec, m *simmachine.Machine, _ []int16) {
			if s.Grain == GrainAdaptive {
				m.SetGrainPolicy(parallel.GrainAdaptive)
			}
		},
	},
	{
		Name:   "placement",
		Help:   "locality model for resident data: stolen chunks only, or first-touch page ownership (needs -sockets > 1)",
		Values: []string{PlacementNone, PlacementFirstTouch},
		Field:  func(s *Spec) any { return &s.Placement },
		Machine: func(s Spec, m *simmachine.Machine, _ []int16) {
			m.SetPlacement(s.Placement == PlacementFirstTouch)
		},
	},
	{
		Name:   "freq",
		Help:   "modeled DVFS operating point: scales core clocks and CPU dynamic power together",
		Values: []string{FreqTurbo, FreqBalanced, FreqPowersave},
		Field:  func(s *Spec) any { return &s.FreqState },
		// Modeled seconds and joules move as a pair, the way a real
		// governor change shifts both sides of the energy-delay trade.
		Scale: func(s Spec, m simmachine.Model, p power.Constants) (simmachine.Model, power.Constants) {
			if f, err := power.FreqStateByName(s.FreqState); err == nil {
				return f.ScaleModel(m), f.ScaleConstants(p)
			}
			return m, p
		},
	},
	{
		Name:   "compress",
		Help:   "delta+varint compressed adjacency in GAP and Graph500 BFS/PR (decode-aware cost model)",
		Field:  func(s *Spec) any { return &s.Compress },
		Engine: func(s Spec, o engines.Options) engines.Options { o.Compress = s.Compress; return o },
	},
	{
		Name:   "sync-sssp",
		Help:   "synchronous deterministic SSSP in GAP and GraphBIG",
		Field:  func(s *Spec) any { return &s.SyncSSSP },
		Engine: func(s Spec, o engines.Options) engines.Options { o.SyncSSSP = s.SyncSSSP; return o },
	},
	{
		Name: "nodes", Min: 1, Max: MaxNodes,
		Help:    "virtual cluster node count of the modeled distributed-memory mode (0/1 = single box)",
		Field:   func(s *Spec) any { return &s.Nodes },
		Machine: func(s Spec, m *simmachine.Machine, owner []int16) { m.SetCluster(s.Nodes, owner) },
	},
	{
		// Takes effect through Spec.Owners: the table it selects is what
		// the nodes hook installs.
		Name:   "partition",
		Help:   "cluster partition scheme: blocked vertex ranges, or greedy vertex-cut homes (needs -nodes > 1)",
		Values: []string{Partition1D, Partition2D},
		Field:  func(s *Spec) any { return &s.Partition },
	},
	{
		Name:   "mutations",
		Help:   "streaming phase `BxS@F`: B batches of S edge mutations with delete fraction F (e.g. 4x64@0.25); PR and WCC only",
		Field:  func(s *Spec) any { return &s.Mutations },
		Engine: func(s Spec, o engines.Options) engines.Options { o.Mutations = s.Mutations != nil; return o },
	},
}

// Legal lists the knob's legal values for error messages, flag usage
// and the README table; empty for switches and schedules.
func (k *Knob) Legal() string {
	switch {
	case k.Values != nil:
		return strings.Join(k.Values, ", ")
	case k.Max > 0:
		return fmt.Sprintf("0 or %g..%g", k.Min, k.Max)
	case k.Min > 0:
		return fmt.Sprintf("0 or >= %g", k.Min)
	}
	return ""
}

// check rejects a value of the knob's field in s outside the table. It
// asks Field for the field's place in fieldProbe and reads s there:
// Field is a function value, so a pointer into s handed to it would move
// every spec Validate checks to the heap.
func (k *Knob) check(s Spec) error {
	var n float64
	switch p := k.Field(&fieldProbe).(type) {
	case *string:
		if v := fieldOf(&s, p); v != "" && !slices.Contains(k.Values, v) {
			return fmt.Errorf("core: unknown %s %q (want one of: %s)", k.Name, v, k.Legal())
		}
		return nil
	case *int:
		n = float64(fieldOf(&s, p))
	case *float64:
		n = fieldOf(&s, p)
	}
	if n != 0 && (n < k.Min || k.Max > 0 && n > k.Max) {
		return fmt.Errorf("core: %s must be %s, got %g", k.Name, k.Legal(), n)
	}
	return nil
}

// fieldProbe is the spec check locates knob fields in; nothing writes it.
var fieldProbe Spec

// fieldOf reads the field of s that p addresses in fieldProbe.
func fieldOf[T any](s *Spec, p *T) T {
	return *(*T)(unsafe.Add(unsafe.Pointer(s), uintptr(unsafe.Pointer(p))-uintptr(unsafe.Pointer(&fieldProbe))))
}

// ownersKind derives a graph's 2D owner table per node count.
type ownersKind struct{}

// Owners returns the per-vertex home-node table of the spec's cluster
// partition on the homogenized graph, nil where ownership is blocked
// (one box, or Partition1D). It describes where data lives, not how an
// engine processes it, so it is the graph's own (graph.Derive, per node
// count), shared read-only across engines and runs, like the roots.
func (s Spec) Owners(g *graph.Simple) []int16 {
	if s.Nodes > 1 && s.Partition == Partition2D {
		return graph.Derive(g, ownersKind{}, s.Nodes, func() []int16 {
			return graph.GreedyVertexCut(g.Out, s.Nodes, nil).Owners()
		})
	}
	return nil
}

// NewMachine readies the machine of one engine run — Spec.Threads
// virtual threads on the model at the spec's operating point, with
// every machine-side knob applied — by renewing m (simmachine.Renew:
// nothing of its last run survives but scratch capacity), or on a new
// machine when m is nil, and returns it with the power calibration at
// the same point for the run's meter. The hooks trust Validate: a name
// outside the table configures nothing.
func (s Spec) NewMachine(m *simmachine.Machine, model simmachine.Model, pc power.Constants, owner []int16) (*simmachine.Machine, power.Constants) {
	for _, k := range Knobs {
		if k.Scale != nil {
			model, pc = k.Scale(s, model, pc)
		}
	}
	if m == nil {
		m = new(simmachine.Machine)
	}
	m.Renew(model, s.Threads)
	for _, k := range Knobs {
		if k.Machine != nil {
			k.Machine(s, m, owner)
		}
	}
	return m, pc
}

// EngineOptions returns the knobs the spec requests of the engine d
// declares, as far as d honors them (what its instances are bound
// with), and the names of the requested knobs d drops. Rows from a run
// with dropped knobs do not measure what the spec asked for: surface the
// names, do not discard them.
func (s Spec) EngineOptions(d *engines.Decl) (o engines.Options, dropped []string) {
	for _, k := range Knobs {
		if k.Engine == nil {
			continue
		}
		req := k.Engine(s, engines.Options{})
		if d.Honored(req) != req {
			dropped = append(dropped, k.Name)
			continue
		}
		o = k.Engine(s, o)
	}
	return o, dropped
}
