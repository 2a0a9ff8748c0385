//go:build epg_permute

package simmachine

import "github.com/hpcl-repro/epg/internal/xrand"

// chunkOrder is the schedule of an epg_permute build: every
// For and ForEachThread region runs its chunks one after
// another on the calling goroutine, in the order SetChunkOrder picks.
type chunkOrder struct {
	k, regions int    // regions: ordered since the last Reset, in
	gen        uint64 // this trace generation
}

// SetChunkOrder picks the order: 0 (the default) runs a region's chunks
// in descending index order, 1 ascending, and any other k a permutation
// seeded by (k, chunk count, regions since the last Reset).
func (m *Machine) SetChunkOrder(k int) { m.order.k = k }

// next returns the order of a region of n chunks, in m's scratch.
func (o *chunkOrder) next(m *Machine, n int) []int {
	if o.gen != m.generation {
		o.gen, o.regions = m.generation, 0
	}
	o.regions++
	order := zeroed(m.scratch.order, n)
	m.scratch.order = order
	s := xrand.Mix64(uint64(o.k)<<40 ^ uint64(o.regions)<<20 ^ uint64(n))
	for i := range order {
		switch o.k {
		case 0:
			order[i] = n - 1 - i
		case 1:
			order[i] = i
		default: // inside-out Fisher–Yates
			j := int(xrand.SplitMix64(&s) % uint64(i+1))
			order[i], order[j] = order[j], i
		}
	}
	return order
}
