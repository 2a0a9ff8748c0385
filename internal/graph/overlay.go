package graph

import (
	"slices"
	"unsafe"
)

// compactNum/compactDen bound an overlay epoch: Apply compacts into a
// flat CSR once the patch — its slot index, its row table and every
// entry the overlays since the last flat epoch allocated — would take
// more than this share of the flat epoch's bytes. So no overlay holds,
// and no batch allocates, more than a rebuild would: a small graph, or
// a batch that dirties much of the graph, compacts at once.
const compactNum, compactDen = 1, 2

// patch is what makes a CSR an overlay epoch: a flat base plus fresh
// storage for the rows batches rewrote since it. Nothing in it is ever
// written after Apply returns the epoch, and an Apply builds its own
// slot index and row table: a later epoch, or a sibling applied to the
// same parent, shares rows with this one but never writes them.
type patch struct {
	base *CSR // flat
	// slot[v] = k > 0: row v is rows[k-1]; 0: it is base's row.
	slot []int32
	rows []patchRow
	// edges is the epoch's stored entry count; spent the entries every
	// overlay since base allocated, the ones still read or not.
	edges, spent int64
}

// patchRow is one rewritten row, capped at its length.
type patchRow struct {
	adj []VID
	w   []float32 // nil when unweighted
}

// adj and row read row v: its patched copy, or the base's.
func (p *patch) adj(v VID) []VID {
	if k := p.slot[v]; k != 0 {
		return p.rows[k-1].adj
	}
	return p.base.Adj[p.base.Offsets[v]:p.base.Offsets[v+1]]
}

func (p *patch) row(v VID) ([]VID, []float32) {
	if k := p.slot[v]; k != 0 {
		return p.rows[k-1].adj, p.rows[k-1].w
	}
	return p.base.WeightedRow(v)
}

// Flat returns the epoch as a flat CSR: c itself when it is one,
// otherwise a fresh compaction of its rows.
func (c *CSR) Flat() *CSR {
	if c.patch == nil {
		return c
	}
	return c.flatten(nil, c.NumEdges())
}

// patchFits reports whether the epoch after deltas (edges entries, fresh
// of them in the dirty rows) stays an overlay under compactNum/compactDen.
func (c *CSR) patchFits(deltas []rowDelta, edges, fresh int64) bool {
	rows, spent := len(deltas), fresh
	if p := c.patch; p != nil {
		rows, spent = len(p.rows), p.spent+fresh
		for i := range deltas {
			if p.slot[deltas[i].row] == 0 {
				rows++
			}
		}
	}
	entry := int64(unsafe.Sizeof(VID(0)))
	if c.Weighted() {
		entry += int64(unsafe.Sizeof(float32(0)))
	}
	n := int64(c.NumVertices)
	patchBytes := n*int64(unsafe.Sizeof(int32(0))) + int64(rows)*int64(unsafe.Sizeof(patchRow{})) + spent*entry
	flatBytes := (n+1)*int64(unsafe.Sizeof(int64(0))) + edges*entry
	return patchBytes*compactDen <= flatBytes*compactNum
}

// overlay builds the epoch after deltas as c's base plus a patch: c's
// slot index and row table copied, each dirty row merged into one fresh
// arena. It returns nil if a merge does not fill its row.
func (c *CSR) overlay(deltas []rowDelta, edges, fresh int64) *CSR {
	p := &patch{base: c, edges: edges, spent: fresh}
	if old := c.patch; old != nil {
		p.base, p.spent = old.base, old.spent+fresh
		p.slot = slices.Clone(old.slot)
		p.rows = append(make([]patchRow, 0, len(old.rows)+len(deltas)), old.rows...)
	} else {
		p.slot = make([]int32, c.NumVertices)
		p.rows = make([]patchRow, 0, len(deltas))
	}
	adj := make([]VID, fresh)
	var ws []float32
	if c.Weighted() {
		ws = make([]float32, fresh)
	}
	for i := range deltas {
		d := &deltas[i]
		oa, ow := c.WeightedRow(d.row)
		k := len(oa) + d.grow
		r := patchRow{adj: adj[:k:k]}
		adj = adj[k:]
		if ws != nil {
			r.w, ws = ws[:k:k], ws[k:]
		}
		if mergeRow(r.adj, r.w, oa, ow, d.ch) != k {
			return nil
		}
		if s := p.slot[d.row]; s != 0 {
			p.rows[s-1] = r
		} else {
			p.rows = append(p.rows, r)
			p.slot[d.row] = int32(len(p.rows))
		}
	}
	return &CSR{NumVertices: c.NumVertices, patch: p}
}

// flatten writes the epoch after deltas (rows ascending; none for a
// plain compaction) into a fresh flat CSR of edges entries: clean rows
// copied, dirty rows merged. It returns nil if a merge does not fill
// its row.
func (c *CSR) flatten(deltas []rowDelta, edges int64) *CSR {
	n := c.NumVertices
	nc := &CSR{NumVertices: n, Offsets: make([]int64, n+1), Adj: make([]VID, edges)}
	weighted := c.Weighted()
	if weighted {
		nc.Weights = make([]float32, edges)
	}
	for v, di := 0, 0; v < n; v++ {
		oa, ow := c.WeightedRow(VID(v))
		lo, hi := nc.Offsets[v], nc.Offsets[v]+int64(len(oa))
		if di < len(deltas) && deltas[di].row == VID(v) {
			d := &deltas[di]
			di++
			hi = lo + int64(len(oa)+d.grow)
			var w []float32
			if weighted {
				w = nc.Weights[lo:hi]
			}
			if mergeRow(nc.Adj[lo:hi], w, oa, ow, d.ch) != int(hi-lo) {
				return nil
			}
		} else {
			copy(nc.Adj[lo:hi], oa)
			if weighted {
				copy(nc.Weights[lo:hi], ow)
			}
		}
		nc.Offsets[v+1] = hi
	}
	return nc
}
