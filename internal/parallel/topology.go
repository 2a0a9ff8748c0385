package parallel

import (
	"runtime"
	"sync"

	"github.com/hpcl-repro/epg/internal/xrand"
)

// Topology describes the socket layout the work-stealing scheduler
// places workers and chunks onto: `Sockets` groups of
// ceil(workers/Sockets) consecutive worker IDs. Chunk affinity follows
// the static owner — chunk c belongs to worker c % workers, and
// therefore to that worker's socket — so a topology-aware thief that
// prefers same-socket victims also prefers chunks whose data its
// socket already touched during the prefill.
//
// The zero Topology means "unspecified" and resolves to
// DefaultTopology where a concrete layout is needed. Nothing
// observable depends on the real topology: outputs key off chunk
// indices and modeled durations off the simmachine's own virtual
// topology (Spec.Sockets), so the real layout only shifts wall-clock
// time.
type Topology struct {
	// Sockets is the socket count; values below 1 (including the
	// zero Topology) resolve to DefaultTopology.
	Sockets int
	// Nodes is the virtual cluster node count (simmachine.SetCluster):
	// values above 1 group ceil(workers/Nodes) consecutive worker IDs
	// per node and add a third, outermost victim-preference level —
	// a thief empties its own node's sockets before crossing to a
	// remote node. Values below 2 mean a single node (no outer level,
	// behavior unchanged).
	Nodes int
}

// DefaultTopology guesses a socket layout from GOMAXPROCS: one socket
// per 16 hardware threads, capped at 4. Laptops and CI containers get
// a single socket (two-level stealing degenerates to flat stealing);
// large hosts get the cross-socket victim ordering.
func DefaultTopology() Topology {
	return Topology{Sockets: min((runtime.GOMAXPROCS(0)+15)/16, 4)}
}

// resolved returns the concrete layout for `workers` participants:
// an unspecified socket count takes the GOMAXPROCS default, and both
// counts are clamped to [1, workers].
func (t Topology) resolved(workers int) Topology {
	if t.Sockets < 1 {
		t.Sockets = DefaultTopology().Sockets
	}
	t.Sockets = min(t.Sockets, workers)
	t.Nodes = max(1, min(t.Nodes, workers))
	return t
}

// blockSize returns how many consecutive worker IDs share a socket (or
// a node) when `workers` workers split into `groups` of them — the one
// placement arithmetic, used by socketOf and by stealChunks.
func blockSize(workers, groups int) int {
	return (workers + groups - 1) / groups
}

// socketOf returns the socket of the given worker under this topology
// when `workers` workers participate.
func (t Topology) socketOf(worker, workers int) int {
	return worker / blockSize(workers, t.resolved(workers).Sockets)
}

// stealChunks executes the chunks under work stealing, the one executor
// behind both Steal and NUMA. Worker w's Chase–Lev deque is prefilled
// with chunks w, w+workers, ... (the Static assignment); owners pop
// their share in ascending index order and an idle worker steals the
// highest-index chunk of a victim, working outward through the
// topology's levels: its own socket, then its node's other sockets,
// then remote nodes — randomized probes (decorrelating thieves)
// followed by a deterministic sweep at each level. A level exists only
// where the topology actually splits the workers, so Steal (one socket,
// one node) probes and sweeps every other deque once, and NUMA crosses
// an interconnect only when everything nearer is dry (deques only
// shrink after the prefill, so an empty nearer sweep stays empty).
//
// Termination needs no counter: nothing is pushed after the prefill,
// so once the sweeps of every level — which together cover every other
// deque — come up empty in one pass, all chunks have been claimed.
// Their claimants finish them before returning from this region (Run
// waits on every worker), so the idle worker exits instead of spinning.
func stealChunks(p *Pool, workers, nchunks int, topo Topology, runChunk func(c, worker int)) {
	topo = topo.resolved(workers)
	levels := 1
	if topo.Sockets > 1 {
		levels++
	}
	if topo.Nodes > 1 {
		levels++
	}
	perSock, perNode := blockSize(workers, topo.Sockets), blockSize(workers, topo.Nodes)
	set := prefillDeques(workers, nchunks)
	deques := set.deques
	seed := StealSeed(nchunks, workers)
	p.Run(workers, func(worker int) {
		rng := xrand.New(seed ^ xrand.Mix64(uint64(worker)+1))
		// take steals one chunk from victim v if v sits at interconnect
		// distance d: 0 shares the thief's socket, levels-1 is the
		// farthest ring (across the network when there are nodes). With
		// one socket or one node that block is all the workers, so the
		// ring separates nobody.
		take := func(v, d int) bool {
			dist := 0
			switch {
			case v == worker:
				return false
			case levels == 1:
			case v/perNode != worker/perNode:
				dist = levels - 1
			case v/perSock != worker/perSock:
				dist = 1
			}
			if dist != d {
				return false
			}
			c, ok := deques[v].Steal()
			if ok {
				runChunk(int(c), worker)
			}
			return ok
		}
		steal := func() bool {
			for d := 0; d < levels; d++ {
				for tries := 0; tries < workers; tries++ {
					if take(int(rng.Uint64()%uint64(workers)), d) {
						return true
					}
				}
				for off := 1; off < workers; off++ {
					if take((worker+off)%workers, d) {
						return true
					}
				}
			}
			return false
		}
		own := deques[worker]
		for {
			if c, ok := own.PopBottom(); ok {
				runChunk(int(c), worker)
			} else if !steal() {
				return
			}
		}
	})
	// Only a region that ran to completion returns its set: one a
	// panicking chunk abandoned is left to the collector.
	dequeSets.Put(set)
}

// dequeSet is the deques of one steal region. Sets are recycled through
// dequeSets — process-wide, not per Pool, because concurrent callers
// (epgd's executors) share parallel.Default and each needs its own.
type dequeSet struct{ deques []*Deque }

var dequeSets = sync.Pool{New: func() any { return new(dequeSet) }}

// prefillDeques returns a recycled set of per-worker Chase–Lev deques,
// emptied and regrown as this region needs, holding the static chunk
// assignment (worker w owns w, w+workers, ...), pushed in descending
// order so owners pop ascending.
func prefillDeques(workers, nchunks int) *dequeSet {
	set := dequeSets.Get().(*dequeSet)
	for len(set.deques) < workers {
		set.deques = append(set.deques, nil)
	}
	deques := set.deques[:workers]
	per := (nchunks + workers - 1) / workers
	for w, d := range deques {
		if d == nil || len(d.buf) < per {
			deques[w] = NewDeque(per)
			continue
		}
		d.top.Store(0)
		d.bottom.Store(0)
	}
	for w := 0; w < workers; w++ {
		last := w + ((nchunks-1-w)/workers)*workers
		for c := last; c >= 0; c -= workers {
			if !deques[w].PushBottom(int64(c)) {
				panic("parallel: steal deque prefill overflow")
			}
		}
	}
	return set
}
