package simmachine

import (
	"github.com/hpcl-repro/epg/internal/parallel"
	"github.com/hpcl-repro/epg/internal/xrand"
)

// laneLoad converts a chunk cost into the scalar "cycles-equivalent"
// load the schedulers order lanes by (atomics folded at uncontended
// cost, bytes at a nominal 4 B/cycle).
func laneLoad(c Cost, model *Model) float64 {
	return c.Cycles + c.Atomics*model.AtomicCycles + c.Bytes/4
}

// stealLanesTopo deterministically simulates a work-stealing
// execution of the chunk costs over the t = len(lanes) virtual lanes,
// placed on `sockets` consecutive lane blocks, and adds each chunk's
// cost to the lane that ran it — recording that lane in execLane when
// it is non-nil (for the first-touch placement and network models'
// ownership bookkeeping). lanes, loads, head and tail are the caller's
// zeroed per-lane scratch.
//
// The simulation mirrors the real runtime's discipline
// (parallel.Steal / parallel.NUMA): lane l starts owning chunks l,
// l+t, l+2t, ... and consumes its own share in ascending index order;
// when its queue is empty it steals the highest-index remaining chunk
// from a victim (falling back to a deterministic scan so progress
// never depends on RNG luck), paying one atomic RMW per successful
// steal. Lanes act in order of accumulated load — the least-loaded
// lane is the one whose "clock" is furthest behind, i.e. the first to
// go idle — which makes this a discrete-event approximation of the
// steal race.
//
// A chunk's home socket is its static owner's (the only queue it ever
// sits in), so a steal whose victim lives on another socket block
// carries the chunk's data across the interconnect: the stolen
// chunk's DRAM bytes are scaled by remoteBytes and the claiming CAS
// costs remoteSteal extra cycles. Both penalties need sockets > 1 to
// be reachable.
//
// twoLevel selects the victim order. Flat (Steal policy): randomized
// probes over all lanes, then a deterministic scan. Two-level (NUMA
// policy): same-socket probes and a same-socket scan first, remote
// lanes only when the whole socket is dry — fewer remote steals on
// the same workload, which is the regime the scheduling study
// quantifies. With one socket two-level collapses to flat (every
// victim is local, no penalty is ever reachable), so the sockets=1
// accounting is byte-identical to the historical flat simulation,
// which the determinism wall asserts for Sched="numa".
//
// Everything here is a pure function of (costs, t, sockets,
// penalties, model): the RNG seed derives from the region shape only,
// so modeled durations are bit-identical across runs and real worker
// counts.
func stealLanesTopo(costs, lanes []Cost, loads []float64, execLane, head, tail []int, sockets int, remoteBytes, remoteSteal float64, twoLevel bool, model *Model) {
	t := len(lanes)
	if len(costs) == 0 || t == 1 {
		for _, c := range costs {
			lanes[0].Add(c)
		}
		return
	}
	if sockets < 1 {
		sockets = 1
	}
	if sockets > t {
		sockets = t
	}
	if sockets == 1 {
		// Two-level victim order on one socket IS the flat order;
		// taking the flat path keeps NUMA byte-identical to Steal
		// there (the determinism wall's contract).
		twoLevel = false
	}
	per := (t + sockets - 1) / sockets
	// Lane l's queue is the chunks l, l+t, ... in ascending order — its
	// i-th entry is l + i*t, so only the two ends are kept: owners take
	// from the front (head), thieves from the back (tail), the real
	// deque's two ends.
	for l := 0; l < t && l < len(costs); l++ {
		tail[l] = (len(costs) - l + t - 1) / t
	}

	r := xrand.New(parallel.StealSeed(len(costs), t))
	remaining := len(costs)
	for remaining > 0 {
		// The lane that has accrued the least load acts next
		// (ties break toward the lowest lane index).
		l := 0
		for k := 1; k < t; k++ {
			if loads[k] < loads[l] {
				l = k
			}
		}
		if head[l] < tail[l] {
			c := l + head[l]*t
			head[l]++
			lanes[l].Add(costs[c])
			loads[l] += laneLoad(costs[c], model)
			if execLane != nil {
				execLane[c] = l
			}
			remaining--
			continue
		}
		// Own queue empty: steal. Two-level tries the lane's own
		// socket first (random probes, then a same-socket scan). The
		// two orders charge probes the way their real executors do:
		// two-level filters self and off-socket draws arithmetically
		// (free — parallel's executor never issues a CAS for them) and pays
		// AtomicCycles only for a genuine probe of a local deque;
		// flat keeps the historical accounting of one AtomicCycles
		// per draw, so the steal-vs-numa gap at equal sockets
		// measures victim selection, not probe bookkeeping.
		victim := -1
		if twoLevel {
			for tries := 0; tries < t; tries++ {
				v := int(r.Uint64() % uint64(t))
				if v == l || v/per != l/per {
					continue // filtered arithmetically: no CAS issued
				}
				loads[l] += model.AtomicCycles // a real probe of a local deque
				if head[v] < tail[v] {
					victim = v
					break
				}
			}
			if victim < 0 {
				for off := 1; off < t; off++ {
					v := (l + off) % t
					if v/per == l/per && head[v] < tail[v] {
						victim = v
						break
					}
				}
			}
		}
		// Random probes over the remaining lanes: the only phase for
		// the flat order, the remote fallback for two-level (whose
		// local lanes are known dry and filtered for free).
		if victim < 0 {
			for tries := 0; tries < t; tries++ {
				v := int(r.Uint64() % uint64(t))
				if twoLevel {
					if v == l || v/per == l/per {
						continue
					}
					loads[l] += model.AtomicCycles
					if head[v] < tail[v] {
						victim = v
						break
					}
				} else {
					loads[l] += model.AtomicCycles
					if v != l && head[v] < tail[v] {
						victim = v
						break
					}
				}
			}
		}
		if victim < 0 {
			for off := 1; off < t; off++ {
				v := (l + off) % t
				if head[v] < tail[v] {
					victim = v
					break
				}
			}
		}
		tail[victim]--
		cIdx := victim + tail[victim]*t
		c := costs[cIdx]
		steal := Cost{Atomics: 1} // the claiming CAS
		if victim/per != l/per {
			// Remote-chunk-access and remote-steal penalties: the
			// chunk's home is its owner's socket (it was only ever in
			// the owner's queue).
			c.Bytes *= remoteBytes
			steal.Cycles += remoteSteal
		}
		lanes[l].Add(c)
		lanes[l].Add(steal)
		loads[l] += laneLoad(c, model) + model.AtomicCycles + steal.Cycles
		if execLane != nil {
			execLane[cIdx] = l
		}
		remaining--
	}
}
