package simmachine

import "math/bits"

// Modeled distributed-memory cluster. SetCluster groups the machine's
// virtual lanes into `nodes` cluster nodes (lane l belongs to node
// l/ceil(threads/nodes), mirroring the socket grouping of the steal
// topology) and declares who owns each item of a region's index space:
// an explicit per-item owner table (the 2D vertex-cut partition) or,
// when the table is nil or does not cover the region, contiguous
// blocked 1D ranges.
//
// Per region, every chunk whose items are owned by a node other than
// the executing lane's is charged inter-node traffic in two terms,
// exactly parallel to how placement.go charges cross-socket reads:
//
//   - bytes: the remote-owned share of the chunk's DRAM bytes is
//     multiplied by Model.NetBytesFactor − 1 and added to the executing
//     lane AFTER lane assignment, so it widens the bandwidth roofline
//     without perturbing which lane ran which chunk;
//   - latency: messages batch per superstep — all traffic between one
//     ordered (sender, owner) node pair in one region coalesces into a
//     single flush — and the region pays Model.NetLatencyCycles per
//     distinct communicating pair, serialized after the barrier.
//
// Determinism contract: node membership, item ownership, and both
// charges are pure functions of (costs, threads, nodes, owner table,
// n, grain) plus the same execLane assignment the placement model
// uses. Real workers, GOMAXPROCS, and wall-clock never enter. With
// nodes <= 1 the model is inert and the machine's trace is
// byte-identical to the unsharded one — the Nodes=1 conformance wall
// pins that.
//
// Approximations, by design: ForEachThread, Serial, and ChargeSerial
// regions are uncharged (per-thread local state and serial drains are
// node-local by construction), and owner tables apply only to regions
// whose index space length equals the table's — other index spaces
// (edge-indexed sweeps, replica slots) fall back to blocked 1D, the
// same congruent-views treatment placement.go applies to pages.

// SetCluster configures the virtual cluster: the node count and an
// optional per-item owner table for vertex-indexed regions (nil means
// blocked 1D ownership everywhere). Counts below 2 disable the model.
func (m *Machine) SetCluster(nodes int, owner []int16) { m.nodes, m.nodeOwner = max(nodes, 1), owner }

// clusterActive reports whether the network model charges anything.
func (m *Machine) clusterActive() bool { return m.nodes > 1 }

// netBytesFactor resolves the inter-node traffic multiplier (models
// predating the network fields charge no surcharge).
func (m *Machine) netBytesFactor() float64 {
	if m.model.NetBytesFactor >= 1 {
		return m.model.NetBytesFactor
	}
	return 1
}

// chargeNetwork walks the region's chunks in ascending index order,
// resolves each chunk's item ownership against the cluster partition,
// and accumulates the two network terms into the lanes (bytes) and the
// machine's pending scratch (batch latency + message bytes), which
// commitLanes consumes when it prices the region.
func (m *Machine) chargeNetwork(costs, lanes []Cost, execLane []int, n, grain int) {
	t := m.threads
	nodes := m.nodes
	per := (t + nodes - 1) / nodes // lanes per node, last node may be short
	factor := m.netBytesFactor()
	owner := m.nodeOwner
	if len(owner) != n {
		owner = nil // index space doesn't match the table: blocked 1D
	}

	sc := &m.scratch
	sc.cnt, sc.pairs = zeroed(sc.cnt, nodes), zeroed(sc.pairs, nodes)
	cnt := sc.cnt     // items of the current chunk per owner node
	pairs := sc.pairs // pairs[s] = owner-node mask messaged by sender s
	var netBytes float64
	for c := range costs {
		lo, hi := c*grain, min((c+1)*grain, n)
		items := hi - lo
		if items <= 0 {
			continue
		}
		l := c % t // Static: the residue-class owner
		if execLane != nil {
			l = execLane[c]
		}
		execNode := l / per

		clear(cnt)
		if owner != nil {
			for i := lo; i < hi; i++ {
				cnt[owner[i]]++
			}
		} else {
			for b := 0; b < nodes; b++ {
				blo, bhi := max(b*n/nodes, lo), min((b+1)*n/nodes, hi)
				if bhi > blo {
					cnt[b] = bhi - blo
				}
			}
		}

		bytes := costs[c].Bytes
		if bytes <= 0 {
			continue
		}
		for b := 0; b < nodes; b++ {
			if b == execNode || cnt[b] == 0 {
				continue
			}
			share := bytes * float64(cnt[b]) / float64(items)
			netBytes += share
			if factor > 1 {
				lanes[l].Bytes += share * (factor - 1)
			}
			pairs[execNode] |= 1 << uint(b)
		}
	}

	batches := 0
	for _, mask := range pairs {
		batches += bits.OnesCount64(mask)
	}
	m.pendingNetBytes = netBytes
	m.pendingNetSeconds = float64(batches) * m.model.NetLatencyCycles / m.model.TurboHz
}
