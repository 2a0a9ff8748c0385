package simmachine

import "github.com/hpcl-repro/epg/internal/parallel"

// Page-placement (first-touch) locality model.
//
// The steal simulation's penalties (stealLanesTopo) cover *migrated*
// work only: a chunk pays remote-access costs when a thief on another
// socket takes it. Statically-assigned chunks never paid anything,
// even when the data they read was produced — first touched — by a
// lane on a different socket in an earlier region. Real NUMA machines
// charge exactly that: under Linux's default first-touch policy a page
// belongs to the socket whose core faulted it in, for the lifetime of
// the allocation, and every later access from the other socket crosses
// the interconnect whatever the scheduler did this region.
//
// The model: the machine records a socket owner per
// PlacementPageItems-sized page of the region index space, set by the
// first chunk that touches the page (in ascending chunk order — a
// deterministic stand-in for the first-touch race) and kept across
// regions (and across Machine.Reset: pages stay placed for the life of
// the allocation). When a later chunk executes on a lane whose socket
// differs from a page's owner, the share of the chunk's DRAM bytes
// falling on that page is charged the remote-access multiplier
// (Model.RemoteBytesFactor / Spec.RemotePenalty), under all four
// policies — static and dynamic assignments now pay for reading
// remotely-placed data exactly like steal victims' chunks do.
//
// The index space is the region's [0, n): vertex-indexed regions over
// the same graph share pages, edge-indexed regions share the prefix,
// and frontier-indexed regions model the frontier buffers themselves.
// This treats the engine's resident arrays as congruent views — an
// approximation (no aliasing between distinct same-length arrays is
// modeled), but one that errs uniformly across policies, which is what
// the scheduling study compares.
//
// Determinism: ownership evolves purely from (region sequence, chunk
// costs, policy, threads, sockets) — the same inputs the lane
// assignment uses — so modeled durations stay bit-identical across
// runs and real worker counts. The placement charge is applied after
// lane assignment and never feeds back into lane loads: enabling the
// model with a remote factor of 1 reproduces the no-placement trace
// byte for byte, and the assignment of chunks to lanes is identical
// either way (the conservation wall in placement_test.go pins both).
//
// With placement active the steal simulation's own remote-chunk BYTES
// multiplier is disabled (commitRegion passes factor 1): the page map
// supersedes its home-is-static-owner approximation of where data
// lives, so a stolen chunk pays the remote multiplier exactly once —
// through this model, identically to a statically-assigned chunk
// reading the same pages. The remote steal CAS latency
// (Model.RemoteStealCycles) remains charged by the simulation; it
// prices the steal operation, not the data.
//
// The model is opt-in (Spec.Placement = "firsttouch") and inert with
// one socket: every lane lives on socket 0, so every page is local.

// PlacementPageItems is the first-touch granularity in region items.
// 1024 items ≈ one or a few 4 KiB pages for the 4–24 byte-per-item
// arrays the engines sweep; coarser than any fixed grain in use, so a
// page's owner is decided by whole early chunks, not item stragglers.
const PlacementPageItems = 1024

// SetPlacement enables (or disables) the first-touch page-placement
// model. Enabling it mid-run keeps previously recorded ownership;
// disabling stops both recording and charging.
func (m *Machine) SetPlacement(on bool) { m.placeOn = on }

// placementActive reports whether placement charges are reachable:
// the model is on and more than one socket exists (with one socket
// every touch is local).
func (m *Machine) placementActive() bool { return m.placeOn && m.sockets > 1 }

// touchRange records first-touch ownership for the pages overlapping
// [lo, hi) executed by a lane on socket sk, and returns the extra DRAM
// bytes the chunk pays for its remotely-owned share: bytes ×
// remoteShare × (factor − 1). Pages touched for the first time are
// claimed by sk and charged nothing.
func (m *Machine) touchRange(lo, hi, sk int, bytes, factor float64) float64 {
	if hi <= lo {
		return 0
	}
	lastPage := (hi - 1) / PlacementPageItems
	for len(m.pageOwner) <= lastPage {
		m.pageOwner = append(m.pageOwner, -1)
	}
	remote := 0
	for p := lo / PlacementPageItems; p <= lastPage; p++ {
		plo, phi := max(p*PlacementPageItems, lo), min((p+1)*PlacementPageItems, hi)
		switch owner := m.pageOwner[p]; {
		case owner < 0:
			m.pageOwner[p] = int16(sk)
		case int(owner) != sk:
			remote += phi - plo
		}
	}
	if remote == 0 || factor <= 1 {
		return 0
	}
	return bytes * float64(remote) / float64(hi-lo) * (factor - 1)
}

// SetGrainPolicy selects how Grain resolves region grains (the
// Spec.Grain knob). The default GrainFixed keeps every engine's
// hand-picked grain, byte-identical to the historical behavior.
func (m *Machine) SetGrainPolicy(p parallel.GrainPolicy) { m.grainPolicy = p }

// GrainPolicy returns the machine's grain policy.
func (m *Machine) GrainPolicy() parallel.GrainPolicy { return m.grainPolicy }

// Grain resolves the grain of a region of n items: the engine's fixed
// base under GrainFixed, or the frontier-proportional
// parallel.AdaptiveGrain of the *virtual* thread count under
// GrainAdaptive — a pure function of (n, threads, align), so chunk
// partitions never depend on real workers. align carries the region's
// chunk-boundary constraint (64 for regions that clear bitmap word
// ranges in-region, else 1); see parallel.AdaptiveGrain.
func (m *Machine) Grain(n, base, align int) int {
	if m.grainPolicy == parallel.GrainAdaptive {
		return parallel.AdaptiveGrain(n, m.threads, align)
	}
	return base
}
