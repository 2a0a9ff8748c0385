package simmachine

import (
	"runtime"

	"github.com/hpcl-repro/epg/internal/parallel"
)

// Cost is abstract work charged by an engine: scalar cycles executed,
// bytes moved to or from DRAM (i.e., traffic expected to miss cache),
// and atomic read-modify-write operations (charged separately because
// their cost grows with contention).
type Cost struct {
	Cycles  float64
	Bytes   float64
	Atomics float64
}

// Add accumulates d into c.
func (c *Cost) Add(d Cost) {
	c.Cycles += d.Cycles
	c.Bytes += d.Bytes
	c.Atomics += d.Atomics
}

// Scale returns c with every component multiplied by k.
func (c Cost) Scale(k float64) Cost {
	return Cost{Cycles: c.Cycles * k, Bytes: c.Bytes * k, Atomics: c.Atomics * k}
}

// Sched selects the scheduling policy of a parallel region: one value
// names both the real chunk assignment (see parallel.Sched) and the
// virtual-lane accounting of commitRegion. The real schedule mirrors
// the modeled one, but nothing observable depends on it: the modeled
// assignment is a function of the chunk costs, the virtual thread
// count and the per-region seed only, so modeled durations stay
// bit-identical at any worker count.
type Sched = parallel.Sched

const (
	Static  = parallel.Static  // chunk c on lane c % threads; skewed costs imbalance
	Dynamic = parallel.Dynamic // each chunk, in index order, to the least-loaded lane
	Steal   = parallel.Steal   // deterministic work-stealing simulation (stealLanesTopo, one socket)
	NUMA    = parallel.NUMA    // Steal with socket-aware victims and locality penalties (SetSockets)
)

// Region is one entry of the machine's activity trace: a parallel or
// serial section with its modeled duration and aggregate work. The
// power model integrates over these.
type Region struct {
	Seconds     float64 // modeled duration
	Lanes       int     // virtual threads configured
	ActiveLanes int     // lanes that received work
	Utilization float64 // mean busy fraction across lanes, in [0,1]
	Cost        Cost    // aggregate charged work
	MemBound    bool    // true if duration was set by the bandwidth roofline
	IO          bool    // true for file I/O regions
	NetBytes    float64 // inter-node message bytes (cluster model, network.go)
}

// W accumulates the work of one chunk. It is handed to region bodies
// and must not be retained after the body returns: the machine owns it,
// one slot per real worker, and zeroes it for the worker's next chunk.
type W struct {
	c Cost
}

// wSlot keeps one worker's W off its neighbours' cache lines: two
// workers charging adjacent chunks write 88 bytes apart.
type wSlot struct {
	W
	_ [64]byte
}

// Charge adds an explicit cost.
func (w *W) Charge(c Cost) { w.c.Add(c) }

// Cycles charges n scalar cycles.
func (w *W) Cycles(n float64) { w.c.Cycles += n }

// Bytes charges n bytes of DRAM traffic.
func (w *W) Bytes(n float64) { w.c.Bytes += n }

// Atomics charges n atomic RMW operations.
func (w *W) Atomics(n float64) { w.c.Atomics += n }

// Body is a parallel region's loop body: Chunk runs the items [lo, hi)
// of chunk index chunk on real worker worker, charging w. It is a
// method of the record it reads, so passing one allocates nothing.
type Body interface {
	Chunk(lo, hi, chunk, worker int, w *W)
}

// Machine executes parallel regions for real while accounting modeled
// time for a configured virtual thread count. It is not safe for
// concurrent use by multiple goroutines; regions themselves run their
// bodies concurrently internally, and do not nest: opening a region
// from inside a region body panics.
type Machine struct {
	model   Model
	threads int
	// real concurrency bound for executing bodies
	workers int
	pool    *parallel.Pool

	elapsed float64
	trace   []Region
	tracing bool
	// generation counts Reset and Renew calls. Trace indices from Mark
	// are only meaningful within one generation; windowed consumers
	// (power.RAPL) compare generations to detect a Reset inside an open
	// window instead of slicing the truncated trace out of range — or
	// worse, silently integrating the wrong regions.
	generation uint64

	// Scheduling-policy override: when forced, every parallel region
	// runs under forceSched regardless of the engine's per-region
	// choice (Spec.Sched plumbs through here).
	forceSched Sched
	forced     bool

	// Virtual socket topology for the steal simulation's locality
	// model (Spec.Sockets plumbs through here). sockets defaults to 1
	// — no locality penalties, so Steal keeps its historical numbers
	// and NUMA coincides with it. socketsSet records an explicit
	// SetSockets call: only then is the same count forced onto the
	// real execution topology (otherwise the real side uses the
	// GOMAXPROCS-derived parallel.DefaultTopology, which nothing
	// observable depends on). remotePenalty overrides
	// Model.RemoteBytesFactor when > 0 (Spec.RemotePenalty).
	sockets       int
	socketsSet    bool
	remotePenalty float64

	// Grain policy (Spec.Grain): how Machine.Grain resolves region
	// grains. GrainFixed (the zero value) keeps engine-chosen grains.
	grainPolicy parallel.GrainPolicy

	// First-touch page-placement model (Spec.Placement): when placeOn,
	// pageOwner records the socket that first touched each
	// PlacementPageItems-sized page of the region index space, and
	// chunks reading remotely-owned pages are charged the remote-access
	// multiplier under every policy. See placement.go.
	placeOn   bool
	pageOwner []int16

	// Modeled cluster (Spec.Nodes/Spec.Partition): when nodes > 1,
	// lanes are grouped into virtual cluster nodes, chunks whose index
	// ranges are owned by a different node than the executing lane's
	// are charged inter-node message traffic, and each region pays a
	// batched flush latency per communicating node pair. nodeOwner is
	// the per-item owner table of the region index space (the 2D
	// vertex-cut partition); nil means blocked 1D ownership. See
	// network.go.
	nodes     int
	nodeOwner []int16
	// Scratch carried from chargeNetwork to commitLanes within one
	// commitRegion call (consumed and zeroed there).
	pendingNetSeconds float64
	pendingNetBytes   float64

	// inRegion is set while a region body runs; enter panics on it.
	inRegion bool
	order    chunkOrder // epg_permute builds: which order chunks run in
	// The bookkeeping of the open region, kept between regions so that
	// a warm region allocates nothing: every slice is grown where it is
	// used (so SetWorkers, SetCluster and a new chunk count need no
	// invalidation) and zeroed on entry, never on exit — a region
	// abandoned by a panicking body leaves nothing the next one reads.
	// Nothing here outlives the region: a Region holds values only.
	scratch struct {
		w        []wSlot   // per real worker: the W its body is handed
		costs    []Cost    // per chunk
		lanes    []Cost    // per virtual lane
		loads    []float64 // per lane: the schedulers' ordering key
		execLane []int     // per chunk: the lane that ran it (placement, network)
		head     []int     // per lane: steal simulation queue ends
		tail     []int
		cnt      []int    // per node: items of the current chunk (network)
		pairs    []uint64 // per node: owner-node mask messaged
		order    []int    // per chunk: the chunk run at that position (epg_permute)
		// The open region's body and its index space, read by runChunk.
		body     Body
		n, grain int
	}
	// runChunk is m.chunk, bound once by the first Renew: the body every
	// region hands the pool, so opening a region builds no closure.
	runChunk func(lo, hi, chunk, worker int)
}

// zeroed returns s with length n and every element zero, reusing its
// array when large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// enter opens a region of nchunks chunks and returns its zeroed cost
// slots. The caller defers leave, so a body's panic closes the region
// too.
func (m *Machine) enter(nchunks int) []Cost {
	if m.inRegion {
		panic("simmachine: region opened inside a region")
	}
	m.inRegion = true
	sc := &m.scratch
	if len(sc.w) < m.workers {
		sc.w = make([]wSlot, m.workers)
	}
	sc.costs = zeroed(sc.costs, nchunks)
	return sc.costs
}

// leave closes the region and drops its body.
func (m *Machine) leave() {
	m.inRegion = false
	m.scratch.body = nil
}

// slot returns worker's W, zeroed for its next body.
func (m *Machine) slot(worker int) *W {
	w := &m.scratch.w[worker].W
	*w = W{}
	return w
}

// chunk runs chunk c of the open region — [lo, hi) of a For, thread c
// of a ForEachThread — on worker and keeps its cost.
func (m *Machine) chunk(lo, hi, c, worker int) {
	sc := &m.scratch
	w := m.slot(worker)
	sc.body.Chunk(lo, hi, c, worker, w)
	sc.costs[c] = w.c
}

// runChunks runs body over the open region's chunks of [0, n): on the
// pool under sched, or one after another on the calling goroutine — in
// index order with one real worker, in an epg_permute build in the
// machine's chunk order (permute.go), chunk i on worker i mod workers.
func (m *Machine) runChunks(body Body, n, grain int, sched Sched) {
	sc := &m.scratch
	sc.body, sc.n, sc.grain = body, n, grain
	order := m.order.next(m, len(sc.costs))
	if order == nil && m.workers > 1 {
		parallel.ForTopo(m.pool, m.workers, sc.n, sc.grain, sched, m.realTopo(), m.runChunk)
		return
	}
	for i := range sc.costs {
		c, worker := i, 0
		if order != nil {
			c, worker = order[i], i%m.workers
		}
		m.chunk(c*sc.grain, min((c+1)*sc.grain, sc.n), c, worker)
	}
}

// New returns a machine with the given model and virtual thread count.
// Thread counts beyond the model's hardware limit are allowed (the
// paper's 72-thread runs equal the limit) but see Model.MaxThreads.
// Region bodies execute on the shared parallel.Default pool with
// min(threads, GOMAXPROCS) real workers; SetWorkers overrides that.
// It is Renew of a zero Machine.
func New(model Model, threads int) *Machine {
	m := new(Machine)
	m.Renew(model, threads)
	return m
}

// Renew makes m what New(model, threads) returns, so a caller that runs
// one machine after another (harness.Runner, the sched study) reuses
// one: every setting — clock, sched override, sockets, remote penalty,
// grain policy, placement and its page owners, cluster and owner table,
// chunk order, tracing — goes back to New's, and the trace generation
// advances, invalidating every Mark cursor taken before. Only the
// capacity of the region scratch, the trace and the page-owner table
// stays, so a renewed machine's regions grow nothing a run before it
// grew. Renew allocates nothing but, on a zero Machine, the chunk
// adapter it binds. Renewing a machine whose region is open panics.
func (m *Machine) Renew(model Model, threads int) {
	if m.inRegion {
		panic("simmachine: machine renewed inside a region")
	}
	threads = max(threads, 1)
	*m = Machine{
		model: model, threads: threads, workers: min(threads, runtime.GOMAXPROCS(0)),
		pool: parallel.Default(), trace: m.trace[:0], tracing: true, generation: m.generation + 1,
		sockets: 1, nodes: 1, pageOwner: m.pageOwner[:0], scratch: m.scratch, runChunk: m.runChunk,
	}
	if m.runChunk == nil {
		m.runChunk = m.chunk // bound once: it closes over m, which a renew keeps
	}
}

// Threads returns the virtual thread count.
func (m *Machine) Threads() int { return m.threads }

// Workers returns the real worker count used to execute region bodies.
func (m *Machine) Workers() int { return m.workers }

// SetWorkers overrides the real worker count (default
// min(threads, GOMAXPROCS)). Counts above GOMAXPROCS are legal —
// goroutines are multiplexed — and must not change results or modeled
// durations; the determinism tests rely on that.
func (m *Machine) SetWorkers(k int) { m.workers = max(k, 1) }

// Model returns the machine's cost model.
func (m *Machine) Model() Model { return m.model }

// Pool returns the worker pool region bodies execute on, for kernels
// that drive parallel primitives directly (Bitmap.ToSlice, BuildCSR)
// and charge the modeled cost separately via ChargeSerial or
// ChargeUniform.
func (m *Machine) Pool() *parallel.Pool { return m.pool }

// SetSchedOverride forces every subsequent parallel region onto
// policy s, overriding the engine's per-region choice. This is the
// Spec.Sched knob: it changes both the real chunk assignment and the
// virtual-lane cost accounting, uniformly across engines.
func (m *Machine) SetSchedOverride(s Sched) {
	m.forceSched, m.forced = s, true
}

// SetSockets sets the virtual socket count of the steal simulation's
// locality model (and of the real two-level steal topology). The
// default is 1: no locality penalties, NUMA ≡ Steal. Counts above the
// thread count are clamped by the simulation.
func (m *Machine) SetSockets(s int) { m.sockets, m.socketsSet = max(s, 1), true }

// Sockets returns the virtual socket count.
func (m *Machine) Sockets() int { return m.sockets }

// SetRemotePenalty overrides Model.RemoteBytesFactor — the multiplier
// on a chunk's DRAM bytes when a lane executes it off its home socket.
// Values below 1 (including 0) restore the model default.
func (m *Machine) SetRemotePenalty(f float64) { m.remotePenalty = f }

// remoteBytesFactor resolves the effective remote-access multiplier:
// the SetRemotePenalty override, else the model constant, else 1 (for
// models predating the locality fields — no penalty).
func (m *Machine) remoteBytesFactor() float64 {
	if m.remotePenalty >= 1 {
		return m.remotePenalty
	}
	if m.model.RemoteBytesFactor >= 1 {
		return m.model.RemoteBytesFactor
	}
	return 1
}

// realTopo returns the socket topology handed to the real executor:
// the explicit Spec.Sockets count when set, otherwise the zero
// Topology (parallel resolves it to its GOMAXPROCS-derived default).
// The virtual node count rides along so node-aware stealing prefers
// same-node victims; nothing observable depends on it.
func (m *Machine) realTopo() parallel.Topology {
	topo := parallel.Topology{Nodes: m.nodes}
	if m.socketsSet {
		topo.Sockets = m.sockets
	}
	return topo
}

// effSched resolves a region's policy against the machine override.
func (m *Machine) effSched(s Sched) Sched {
	if m.forced {
		return m.forceSched
	}
	return s
}

// Elapsed returns the modeled time in seconds since creation or the
// last Reset.
func (m *Machine) Elapsed() float64 { return m.elapsed }

// Reset zeroes the clock and trace and advances the trace generation
// (invalidating any Mark cursors taken before the call). First-touch
// page ownership survives: pages stay placed for the allocation's
// lifetime.
func (m *Machine) Reset() {
	m.elapsed = 0
	m.trace = m.trace[:0]
	m.generation++
}

// Generation returns the trace generation, incremented by every Reset
// and Renew.
// Cursors from Mark are valid only while the generation is unchanged.
func (m *Machine) Generation() uint64 { return m.generation }

// Tracing reports whether trace retention is enabled. Consumers that
// integrate over the trace (power.RAPL) require it.
func (m *Machine) Tracing() bool { return m.tracing }

// Trace returns the recorded regions. The slice is owned by the
// machine; callers must not modify it.
func (m *Machine) Trace() []Region { return m.trace }

// SetTracing enables or disables trace retention (the clock always
// runs). Long sweeps can disable tracing to bound memory.
func (m *Machine) SetTracing(on bool) { m.tracing = on }

// Mark returns an opaque cursor into the trace, for windowed power
// measurements.
func (m *Machine) Mark() (traceIndex int, elapsed float64) {
	return len(m.trace), m.elapsed
}

func (m *Machine) record(r Region) {
	m.elapsed += r.Seconds
	if m.tracing {
		m.trace = append(m.trace, r)
	}
}

// Serial runs body on one lane and charges its work at single-thread
// speed (turbo clock, single-thread bandwidth).
func (m *Machine) Serial(body func(w *W)) {
	m.enter(0)
	defer m.leave()
	w := m.slot(0)
	body(w)
	c := w.c
	tComp := c.Cycles/m.model.TurboHz + c.Atomics*m.model.AtomicCycles/m.model.TurboHz
	tMem := c.Bytes / m.model.ThreadBW
	seconds := tComp
	memBound := false
	if tMem > seconds {
		seconds, memBound = tMem, true
	}
	m.record(Region{
		Seconds: seconds, Lanes: 1, ActiveLanes: 1, Utilization: 1,
		Cost: c, MemBound: memBound,
	})
}

// FileRead models reading (and parsing, when parse is true) n bytes
// from storage as a serial region.
func (m *Machine) FileRead(n int64, parse bool) {
	c := Cost{Bytes: float64(n)}
	seconds := float64(n) / m.model.DiskBW
	if parse {
		p := float64(n) * m.model.ParseCyclesPerByte / m.model.TurboHz
		seconds += p
		c.Cycles += float64(n) * m.model.ParseCyclesPerByte
	}
	m.record(Region{
		Seconds: seconds, Lanes: 1, ActiveLanes: 1, Utilization: 1,
		Cost: c, IO: true,
	})
}

// Sleep advances the modeled clock with no work, recording an idle
// region. The power model's sleep baseline integrates over this.
func (m *Machine) Sleep(seconds float64) {
	m.record(Region{Seconds: seconds, Lanes: 0, ActiveLanes: 0})
}

// For executes body over [0, n) in chunks of the given grain, runs the
// chunks concurrently on the worker pool, and charges the region to the
// virtual machine under the chosen scheduling policy. Chunk boundaries
// and cost accounting are independent of the real execution schedule.
// The chunk index a body is handed is stable across runs and worker
// counts — key deterministic reductions (per-chunk slots) off it. The
// worker ID is only stable within one region — use it solely for
// contention-free scratch (parallel.Counter cells).
func (m *Machine) For(n, grain int, sched Sched, body Body) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	sched = m.effSched(sched)
	costs := m.enter(parallel.NumChunks(n, grain))
	defer m.leave()
	m.runChunks(body, n, grain, sched)
	m.commitRegion(costs, sched, n, grain)
}

// ParallelFor is For with a func body, which converts to a Body
// without allocating.
func (m *Machine) ParallelFor(n, grain int, sched Sched, body func(lo, hi int, w *W)) {
	m.For(n, grain, sched, forFunc(body))
}

// ParallelForChunks is ParallelFor with the chunk index and worker.
func (m *Machine) ParallelForChunks(n, grain int, sched Sched, body func(lo, hi, chunk, worker int, w *W)) {
	m.For(n, grain, sched, chunksFunc(body))
}

type forFunc func(lo, hi int, w *W)
type chunksFunc func(lo, hi, chunk, worker int, w *W)

func (f forFunc) Chunk(lo, hi, _, _ int, w *W)             { f(lo, hi, w) }
func (f chunksFunc) Chunk(lo, hi, chunk, worker int, w *W) { f(lo, hi, chunk, worker, w) }

// ChargeSerial records a serial region of exactly cost c without
// executing anything: the accounting half of work whose real execution
// happened outside a region (a frontier drain, a queue concatenation).
// Pairing real work done through internal/parallel with an explicit
// deterministic charge keeps modeled durations bit-identical across
// workers and policies — the charge is a pure function of c.
func (m *Machine) ChargeSerial(c Cost) {
	m.Serial(func(w *W) { w.Charge(c) })
}

// ChargeUniform records a parallel region of n items in chunks of the
// given grain, each item costing `per`, without executing a body. It
// models uniform sweeps (bitmap scans, frontier-to-bitmap conversions)
// whose real execution ran through internal/parallel primitives; the
// virtual lanes are loaded by the same policy rules as For, so the
// modeled duration is a pure function of (n, grain, sched, per).
func (m *Machine) ChargeUniform(n, grain int, sched Sched, per Cost) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	costs := m.enter(parallel.NumChunks(n, grain))
	defer m.leave()
	for c := range costs {
		costs[c] = per.Scale(float64(min((c+1)*grain, n) - c*grain))
	}
	m.commitRegion(costs, m.effSched(sched), n, grain)
}

// ForEachThread runs body once per virtual thread tid in
// [0, Threads()), as the chunk [tid, tid+1) of index tid. It models
// OpenMP parallel regions where each thread owns local state (e.g.,
// per-thread frontier queues). Bodies execute concurrently on the
// worker pool; each body's cost is charged to its own lane.
func (m *Machine) ForEachThread(body Body) {
	t := m.threads
	costs := m.enter(t)
	defer m.leave()
	m.runChunks(body, t, 1, Dynamic)
	// One chunk per lane: identity schedule either way.
	m.commitLanes(costs)
}

// commitRegion schedules chunk costs onto virtual lanes, applies the
// first-touch placement charge when the model is active, and records
// the region. n and grain describe the region's index space (chunk c
// covers [c*grain, min(n, (c+1)*grain))); the placement model keys
// page ownership off it.
func (m *Machine) commitRegion(costs []Cost, sched Sched, n, grain int) {
	t := m.threads
	sc := &m.scratch
	sc.lanes, sc.loads = zeroed(sc.lanes, t), zeroed(sc.loads, t)
	lanes, loads := sc.lanes, sc.loads
	// The placement and network models both need to know which lane ran
	// each chunk; Static's residue-class assignment is implicit, the
	// other policies record it.
	var execLane []int
	if sched != Static && (m.placementActive() || m.clusterActive()) {
		sc.execLane = zeroed(sc.execLane, len(costs))
		execLane = sc.execLane
	}
	switch sched {
	case Static:
		for i, c := range costs {
			lanes[i%t].Add(c)
		}
	case Dynamic:
		// Greedy least-loaded in chunk order. Track lane "load" in
		// cycles-equivalents (atomics folded at uncontended cost).
		// Every chunk claim is one fetch-and-add on the shared counter,
		// charged to the claiming lane: with more than one lane the
		// counter line bounces, and commitLanes prices each atomic at
		// AtomicCycles plus contention scaling with the active lane
		// count — the serialization the scheduling study quantifies
		// (work stealing pays this only per successful steal).
		for i, c := range costs {
			best := 0
			for l := 1; l < t; l++ {
				if loads[l] < loads[best] {
					best = l
				}
			}
			if t > 1 {
				c.Atomics++
			}
			lanes[best].Add(c)
			loads[best] += laneLoad(c, &m.model)
			if execLane != nil {
				execLane[i] = best
			}
		}
	case Steal, NUMA:
		// With the placement model active, where a chunk's bytes live
		// is decided by the page-ownership map, not by the steal
		// simulation's home-is-static-owner assumption — so the
		// migration bytes multiplier is disabled (factor 1) and ALL
		// byte-locality charging flows through chargePlacement,
		// uniformly with the static and dynamic policies (a stolen
		// chunk must not pay twice for the same remote bytes). The
		// remote CAS latency stays: it prices the steal operation
		// itself, not the data.
		remoteBytes := m.remoteBytesFactor()
		if m.placementActive() {
			remoteBytes = 1
		}
		sc.head, sc.tail = zeroed(sc.head, t), zeroed(sc.tail, t)
		stealLanesTopo(costs, lanes, loads, execLane, sc.head, sc.tail, m.sockets,
			remoteBytes, m.model.RemoteStealCycles, sched == NUMA, &m.model)
	}
	if m.placementActive() {
		m.chargePlacement(costs, lanes, execLane, n, grain)
	}
	if m.clusterActive() {
		m.chargeNetwork(costs, lanes, execLane, n, grain)
	}
	m.commitLanes(lanes)
}

// chargePlacement walks the region's chunks in ascending index order —
// the model's deterministic first-touch resolution — recording page
// ownership and adding the remote-read surcharge to each executing
// lane. The surcharge is bytes-only and is applied after lane
// assignment, so it moves the memory roofline without perturbing which
// lane ran which chunk.
func (m *Machine) chargePlacement(costs, lanes []Cost, execLane []int, n, grain int) {
	t := m.threads
	sockets := min(m.sockets, t)
	per := (t + sockets - 1) / sockets
	factor := m.remoteBytesFactor()
	for c := range costs {
		lo, hi := c*grain, min((c+1)*grain, n)
		l := c % t // Static: the residue-class owner
		if execLane != nil {
			l = execLane[c]
		}
		if extra := m.touchRange(lo, hi, l/per, costs[c].Bytes, factor); extra > 0 {
			lanes[l].Bytes += extra
		}
	}
}

// commitLanes converts per-lane costs into a region duration.
func (m *Machine) commitLanes(lanes []Cost) {
	t := m.threads
	model := &m.model

	// Consume the cluster scratch unconditionally so a stale value can
	// never leak into a later region.
	netSeconds, netBytes := m.pendingNetSeconds, m.pendingNetBytes
	m.pendingNetSeconds, m.pendingNetBytes = 0, 0

	active := 0
	var total Cost
	for _, c := range lanes {
		if c.Cycles != 0 || c.Bytes != 0 || c.Atomics != 0 {
			active++
		}
		total.Add(c)
	}
	if active == 0 {
		return
	}

	hz := model.effHz(t)
	atomicCost := model.AtomicCycles + model.AtomicContention*float64(min(active, t)-1)

	var maxLane, sumLane float64
	for _, c := range lanes {
		sec := (c.Cycles + c.Atomics*atomicCost) / hz
		sumLane += sec
		if sec > maxLane {
			maxLane = sec
		}
	}

	tMem := total.Bytes * model.numaFactor(t) / model.bandwidth(t)
	seconds := maxLane
	memBound := false
	if tMem > seconds {
		seconds, memBound = tMem, true
	}
	seconds += model.barrier(t)
	// The per-superstep network flush serializes after the barrier:
	// every node's batched messages must land before the next region
	// observes their effects.
	seconds += netSeconds

	util := 1.0
	if seconds > 0 {
		util = sumLane / (float64(t) * seconds)
		if util > 1 {
			util = 1
		}
	}
	m.record(Region{
		Seconds: seconds, Lanes: t, ActiveLanes: active,
		Utilization: util, Cost: total, MemBound: memBound,
		NetBytes: netBytes,
	})
}
