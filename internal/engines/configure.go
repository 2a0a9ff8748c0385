package engines

import (
	"github.com/hpcl-repro/epg/internal/graph"
)

// Options is the unified knob surface for Configure: every optional
// engine capability the harness and the serving daemon used to wire
// through per-interface type assertions (SyncSSSPSetter,
// CompressSetter, and the streaming-mutation hook) in one request.
// Zero-valued fields are not requested and leave the target untouched.
// (Per-query cancellation is not a knob: the daemon installs its hook
// on the concrete *gap.Instance it owns.)
type Options struct {
	// SyncSSSP requests the synchronous SSSP mode (schedule-
	// independent parents/relaxations/durations).
	SyncSSSP bool
	// Compress requests delta+varint compressed-adjacency traversal;
	// engine-level and only effective before Load.
	Compress bool
	// Mutations probes for streaming-mutation support: an instance
	// implementing Streamer, or an engine whose instances will.
	// Probing has no side effect.
	Mutations bool
}

// Applied reports, per requested knob, whether the target supports it
// (and, for the setters, that it was applied). Unrequested knobs are
// always false, so callers can warn with `requested && !applied.X`
// without tracking which knobs they asked for.
type Applied struct {
	SyncSSSP  bool
	Compress  bool
	Mutations bool
}

// MutationSupporter is the engine-level half of the mutation probe:
// engines whose instances implement Streamer advertise it here so the
// harness can warn about a dropped Mutations knob before paying for
// Load. Callers should not use this directly — Configure dispatches
// to it.
type MutationSupporter interface {
	SupportsMutations() bool
}

// Configure applies the requested options to target — an Engine or an
// Instance — through whichever capability hooks it implements, and
// reports what took effect. It replaces the scattered per-interface
// type assertions at every call site: the harness wires knob-drop
// warnings off the returned Applied, and the serving daemon uses the
// same call for executor setup.
func Configure(target any, opts Options) Applied {
	var ap Applied
	if opts.SyncSSSP {
		if s, ok := target.(SyncSSSPSetter); ok {
			s.SetSyncSSSP(true)
			ap.SyncSSSP = true
		}
	}
	if opts.Compress {
		if s, ok := target.(CompressSetter); ok {
			s.SetCompress(true)
			ap.Compress = true
		}
	}
	if opts.Mutations {
		switch t := target.(type) {
		case Streamer:
			ap.Mutations = true
		case MutationSupporter:
			ap.Mutations = t.SupportsMutations()
		}
	}
	return ap
}

// Reset turns off every knob target has a setter for, as a new engine
// has them: an engine kept between runs is Reset, then Configured.
func Reset(target any) {
	if s, ok := target.(SyncSSSPSetter); ok {
		s.SetSyncSSSP(false)
	}
	if s, ok := target.(CompressSetter); ok {
		s.SetCompress(false)
	}
}

// MutationReport summarizes one applied batch for callers that charge
// or log mutation work.
type MutationReport struct {
	Stats graph.MutStats
	// DirtyRows counts adjacency rows rebuilt in the out-structure;
	// EdgesTouched is the total merge work (old + new row lengths over
	// dirty rows, out- and in-structure combined).
	DirtyRows    int
	EdgesTouched int64
}

// Streamer is implemented by engine *instances* that accept batched
// edge mutations with incremental result maintenance. The contract
// mirrors the six kernels' determinism walls: after any sequence of
// Mutate calls, IncrementalPageRank and IncrementalWCC return results
// bit-equal to a full PageRank/WCC recompute on the post-batch graph,
// identically across runs and worker counts. Mutations accumulate;
// each incremental call consumes the dirty state accumulated since the
// last one and becomes the new baseline.
type Streamer interface {
	Mutate(batch graph.Batch) (*MutationReport, error)
	IncrementalPageRank(opts PROpts) (*PRResult, error)
	IncrementalWCC() (*WCCResult, error)
}
