package parallel

import (
	"runtime"

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

// stealChunks is one worker's share of a region under work stealing,
// the one executor behind both Steal and NUMA. Worker w's Chase–Lev
// deque is prefilled with chunks w, w+workers, ... (the Static
// assignment); owners pop their share in ascending index order and an
// idle worker steals the highest-index chunk of a victim, working
// outward through the topology's levels: its own socket, then its
// node's other sockets, then remote nodes — randomized probes
// (decorrelating thieves) followed by a deterministic sweep at each
// level. A level exists only where the topology actually splits the
// workers, so Steal (one socket, one node) probes and sweeps every
// other deque once, and NUMA crosses an interconnect only when
// everything nearer is dry (deques only shrink after the prefill, so
// an empty nearer sweep stays empty).
//
// Termination needs no counter: nothing is pushed after the prefill,
// so once the sweeps of every level — which together cover every other
// deque — come up empty in one pass, all chunks have been claimed.
// Their claimants finish them before returning from this region (run
// waits on every worker), so the idle worker exits instead of spinning.
func (r *region) stealChunks(worker int) {
	var rng xrand.RNG // on this worker's stack: thieves share nothing
	rng.Seed(r.seed ^ xrand.Mix64(uint64(worker)+1))
	own := r.deques[worker]
	for {
		if c, ok := own.PopBottom(); ok {
			r.chunk(int(c), worker)
		} else if !r.steal(worker, &rng) {
			return
		}
	}
}

// steal runs one chunk taken from another worker's deque, nearest
// level first, and reports false when every other deque is empty.
func (r *region) steal(worker int, rng *xrand.RNG) bool {
	for d := 0; d < r.levels; d++ {
		for tries := 0; tries < r.workers; tries++ {
			if r.take(worker, int(rng.Uint64()%uint64(r.workers)), d) {
				return true
			}
		}
		for off := 1; off < r.workers; off++ {
			if r.take(worker, (worker+off)%r.workers, d) {
				return true
			}
		}
	}
	return false
}

// take steals one chunk from victim v and runs it if v sits at
// interconnect distance d from worker: 0 shares the thief's socket,
// levels-1 is the farthest ring (across the network when there are
// nodes). With one socket or one node that block is all the workers,
// so the ring separates nobody.
func (r *region) take(worker, v, d int) bool {
	dist := 0
	switch {
	case v == worker:
		return false
	case r.levels == 1:
	case v/r.perNode != worker/r.perNode:
		dist = r.levels - 1
	case v/r.perSock != worker/r.perSock:
		dist = 1
	}
	if dist != d {
		return false
	}
	c, ok := r.deques[v].Steal()
	if ok {
		r.chunk(int(c), worker)
	}
	return ok
}

// prefill readies a steal region over topo: the levels, the seed and
// one deque per worker, emptied and regrown as this region needs,
// holding the static chunk assignment (worker w owns w, w+workers,
// ...), pushed in descending order so owners pop ascending.
func (r *region) prefill(topo Topology) {
	workers, nchunks := r.workers, r.nchunks
	topo = topo.resolved(workers)
	r.levels = 1
	if topo.Sockets > 1 {
		r.levels++
	}
	if topo.Nodes > 1 {
		r.levels++
	}
	r.perSock, r.perNode = blockSize(workers, topo.Sockets), blockSize(workers, topo.Nodes)
	r.seed = StealSeed(nchunks, workers)
	for len(r.deques) < workers {
		r.deques = append(r.deques, nil)
	}
	per := (nchunks + workers - 1) / workers
	for w, d := range r.deques[:workers] {
		if d == nil || len(d.buf) < per {
			d = NewDeque(per)
			r.deques[w] = d
		} else {
			d.top.Store(0)
			d.bottom.Store(0)
		}
		last := w + ((nchunks-1-w)/workers)*workers
		for c := last; c >= 0; c -= workers {
			if !d.PushBottom(int64(c)) {
				panic("parallel: steal deque prefill overflow")
			}
		}
	}
}
