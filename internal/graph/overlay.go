package graph

import (
	"cmp"
	"slices"
	"sync/atomic"
	"unsafe"
)

// compactNum/compactDen bound an overlay epoch: Apply compacts into a
// flat CSR once the patch — its slot index, its two row tables and
// every row entry and delta entry the overlays since the last flat
// epoch allocated — would take more than this share of the flat epoch's
// bytes. So no overlay holds, and no batch allocates, more than a
// rebuild would: a small graph, or a batch that dirties much of the
// graph, compacts at once. At half, a serve-mutate round held a
// compaction or not by the run, and its alloc_mb spread 4-9 % from run
// to run; at the whole, compactions are rare enough that it spreads as
// the copying version's did.
const compactNum, compactDen = 1, 1

// deltaMinDegree and deltaDen are the delta-row rule, a property of the
// row alone: a dirty row keeps the flat base's row under a sorted delta
// of the entries that differ while that base row holds at least
// deltaMinDegree entries and the delta at most 1/deltaDen of them; any
// other dirty row is copied whole. Every read of a delta row merges it,
// so the floor trades what an apply copies against what readers merge:
// on the serve-mutate benchmark (kron-14, 2 CPUs) a floor of 64 cut
// alloc_mb 36 % against copying every dirty row but put op_p95_ms 21 %
// over it; at 512, compacting at the whole flat size, it cuts 34 % at
// about +9 %. 768 and 1024 read a few percent faster but copy the rows
// below them, so a patch fills sooner and a round holds a compaction or
// not by the run: alloc_mb spread 2-5 % from run to run.
// Past the share a merge reads more than the copy would have saved.
const (
	deltaMinDegree = 512
	deltaDen       = 4
)

// patch is what makes a CSR an overlay epoch: a flat base plus the rows
// batches rewrote since it. Nothing an epoch reads is ever written after
// Apply returns it: an Apply builds its own slot index, and appends its
// rows past the ones its parent reads, so a later epoch, or a sibling
// applied to the same parent, shares rows with this one but never
// writes them.
type patch struct {
	base *CSR // flat
	// slot[v] = k > 0: row v is the copy rows[k-1]; k < 0: it is base's
	// row under the delta deltas[-k-1]; 0: it is base's row.
	slot   []int32
	rows   table[patchRow]
	deltas table[deltaRow]
	// edges is the epoch's stored entry count; spent the bytes of row
	// entries and delta entries every overlay since base allocated, the
	// ones still read or not.
	edges, spent int64
}

// patchRow is a dirty row copied whole, capped at its length.
type patchRow struct {
	adj []VID
	w   []float32 // nil when unweighted
}

// deltaRow is a dirty row kept as the base's row under ch, its changes
// sorted by neighbor; deg is the row's length.
type deltaRow struct {
	ch  []entryDelta
	deg int
}

// tableBlock is the entries of one block of a row table.
const tableBlock = 32

// table is one of a patch's row tables, in blocks of tableBlock entries
// so that growing it never copies an entry. A chain of epochs shares
// the blocks, each reading its own first n entries; tail is how many
// are claimed, so only the epoch at the end appends in place and a
// sibling copies the last, partly claimed block.
type table[T any] struct {
	blocks []*[tableBlock]T
	n      int
	tail   *atomic.Int64
}

// at is entry i.
func (t *table[T]) at(i int) *T { return &t.blocks[i/tableBlock][i%tableBlock] }

// extend returns t ready to push k more entries: in place when t ends
// where the claim does, else on its full blocks and a copy of its last
// one.
func (t table[T]) extend(k int) table[T] {
	if t.tail != nil && t.tail.CompareAndSwap(int64(t.n), int64(t.n+k)) {
		return t
	}
	grown := table[T]{blocks: slices.Clone(t.blocks), n: t.n, tail: new(atomic.Int64)}
	if t.n%tableBlock != 0 {
		last := *t.blocks[len(t.blocks)-1]
		grown.blocks[len(grown.blocks)-1] = &last
	}
	grown.tail.Store(int64(t.n + k))
	return grown
}

// push appends x and returns its index.
func (t *table[T]) push(x T) int {
	if t.n == len(t.blocks)*tableBlock {
		t.blocks = append(t.blocks, new([tableBlock]T))
	}
	*t.at(t.n) = x
	t.n++
	return t.n - 1
}

// release gives back the claim past what t holds: only the epoch that
// made the claim, before it has children, may.
func (t table[T]) release() { t.tail.Store(int64(t.n)) }

// stored returns row v as c stores it: its entries and weights (the
// row itself, or a delta row's base row) and, for a delta row only, its
// delta.
func (c *CSR) stored(v VID) ([]VID, []float32, *deltaRow) {
	var d *deltaRow
	if p := c.patch; p != nil {
		switch k := p.slot[v]; {
		case k > 0:
			r := p.rows.at(int(k) - 1)
			return r.adj, r.w, nil
		case k < 0:
			d = p.deltas.at(int(-k) - 1)
		}
		c = p.base
	}
	lo, hi := c.Offsets[v], c.Offsets[v+1]
	if c.Weights == nil {
		return c.Adj[lo:hi], nil, d
	}
	return c.Adj[lo:hi], c.Weights[lo:hi], d
}

// delta is d's changes: nil when d is.
func (d *deltaRow) delta() []entryDelta {
	if d == nil {
		return nil
	}
	return d.ch
}

// resize returns s with length n, regrown only when short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// RowBuf is a reader's scratch for the rows it has built rather than
// read in place: a delta row an overlay merges (Row, WeightedRowBuf) or
// a row a CompressedCSR decodes. Each read regrows it when short; a
// stored row is handed out as it is. One per reading goroutine; a built
// row is valid until the next read through the same RowBuf.
type RowBuf struct {
	adj []VID
	w   []float32
}

// row is Row's and Neighbors' row v: a stored row as it is, a delta
// row merged into buf, or into a fresh slice when buf is nil.
func (c *CSR) row(v VID, buf *RowBuf) []VID {
	p := c.patch
	if p == nil {
		return c.Adj[c.Offsets[v]:c.Offsets[v+1]]
	}
	k := p.slot[v]
	if k > 0 {
		return p.rows.at(int(k) - 1).adj
	}
	adj := p.base.Adj[p.base.Offsets[v]:p.base.Offsets[v+1]]
	if k == 0 {
		return adj
	}
	d := p.deltas.at(int(-k) - 1)
	if buf == nil {
		buf = new(RowBuf)
	}
	buf.adj = resize(buf.adj, d.deg)
	mergeRow(buf.adj, nil, adj, nil, d.ch)
	return buf.adj
}

// WeightedRowBuf returns Neighbors(v) and NeighborWeights(v) without
// allocating once b has grown: a stored row as it is, a delta row
// merged into b.
func (c *CSR) WeightedRowBuf(v VID, b *RowBuf) ([]VID, []float32) {
	adj, w, r := c.stored(v)
	if r == nil {
		return adj, w
	}
	b.adj = resize(b.adj, r.deg)
	var ws []float32
	if w != nil {
		b.w = resize(b.w, r.deg)
		ws = b.w
	}
	mergeRow(b.adj, ws, adj, w, r.ch)
	return b.adj, ws
}

// find reports whether row u holds v, and at what weight (zero when
// unweighted).
func (c *CSR) find(u, v VID) (bool, float32) {
	adj, w, r := c.stored(u)
	if j, ok := slices.BinarySearchFunc(r.delta(), v, func(e entryDelta, v VID) int { return cmp.Compare(e.dst, v) }); ok {
		e := r.ch[j]
		return e.kind != Gone, e.w
	}
	i, ok := slices.BinarySearch(adj, v)
	if !ok {
		return false, 0
	}
	return true, weightAt(w, i)
}

// cursor walks a stored row under its delta (nil for a row stored
// whole) in ascending order without materializing it: next moves u and
// w to the following entry and reports whether there was one.
type cursor struct {
	adj  []VID
	ws   []float32
	ch   []entryDelta
	i, j int
	u    VID
	w    float32
}

func (c *cursor) next() bool {
	for {
		if c.j < len(c.ch) && (c.i == len(c.adj) || c.ch[c.j].dst <= c.adj[c.i]) {
			e := c.ch[c.j]
			c.j++
			if c.i < len(c.adj) && e.dst == c.adj[c.i] {
				c.i++ // the delta names a stored entry: Gone or Reweighed
			}
			if e.kind == Gone {
				continue
			}
			c.u, c.w = e.dst, e.w
			return true
		}
		if c.i == len(c.adj) {
			return false
		}
		c.u, c.w = c.adj[c.i], weightAt(c.ws, c.i)
		c.i++
		return true
	}
}

// DeltaRows counts the rows c stores as a delta on its flat base: zero
// for a flat CSR. Tests use it to show that a stream formed delta rows.
func (c *CSR) DeltaRows() int {
	p := c.patch
	if p == nil {
		return 0
	}
	k := 0
	for _, s := range p.slot {
		if s < 0 {
			k++
		}
	}
	return k
}

// Flat returns the epoch as a flat CSR: c itself when it is one,
// otherwise a fresh compaction of its rows.
func (c *CSR) Flat() *CSR {
	if c.patch == nil {
		return c
	}
	return c.flatten(nil, c.NumEdges())
}

// keepsDelta reports whether dirty row v, changed by d, is a delta row
// after the batch: it is the base's row or a delta on it (not a copy),
// and the base row and the two deltas together pass the rule.
func (c *CSR) keepsDelta(d *rowDelta) bool {
	if c.patch != nil && c.patch.slot[d.row] > 0 {
		return false
	}
	adj, _, r := c.stored(d.row)
	return len(adj) >= deltaMinDegree && (len(r.delta())+len(d.ch))*deltaDen <= len(adj)
}

// overlayPlan is what the epoch after a batch allocates as an overlay
// beyond its slot index: copied and deltaRows, the rows it appends to
// the two tables; copies, the entries of the rows it copies; composed,
// the delta entries it composes for rows that are deltas already; and
// kept, the replay's own delta entries that a row becoming a delta
// keeps.
type overlayPlan struct {
	copied, deltaRows      int
	copies, composed, kept int
}

// plan is the overlayPlan of the epoch after deltas.
func (c *CSR) plan(deltas []rowDelta) overlayPlan {
	var pl overlayPlan
	for i := range deltas {
		d := &deltas[i]
		switch _, _, r := c.stored(d.row); {
		case !c.keepsDelta(d):
			pl.copied++
			pl.copies += int(c.Degree(d.row)) + d.grow
		case r != nil:
			pl.deltaRows++
			pl.composed += len(r.ch) + len(d.ch)
		default:
			pl.deltaRows++
			pl.kept += len(d.ch)
		}
	}
	return pl
}

// spent is the bytes of entries and delta entries the plan allocates.
func (pl overlayPlan) spent(entry int64) int64 {
	return int64(pl.copies)*entry + int64(pl.composed+pl.kept)*int64(unsafe.Sizeof(entryDelta{}))
}

// entryBytes is the bytes of one stored entry: a neighbor and, when
// weighted, its weight.
func (c *CSR) entryBytes() int64 {
	if c.Weighted() {
		return int64(unsafe.Sizeof(VID(0)) + unsafe.Sizeof(float32(0)))
	}
	return int64(unsafe.Sizeof(VID(0)))
}

// patchFits reports whether the epoch after a batch planned as pl
// (edges entries, spent bytes of entries since the base) stays an
// overlay under compactNum/compactDen: its slot index, its row tables
// once pl's rows are appended and spent, against the flat epoch's
// bytes.
func (c *CSR) patchFits(pl overlayPlan, edges, spent int64) bool {
	rows, deltaRows := pl.copied, pl.deltaRows
	if p := c.patch; p != nil {
		rows += p.rows.n
		deltaRows += p.deltas.n
	}
	n := int64(c.NumVertices)
	patchBytes := n*int64(unsafe.Sizeof(int32(0))) + spent +
		int64(rows)*int64(unsafe.Sizeof(patchRow{})) + int64(deltaRows)*int64(unsafe.Sizeof(deltaRow{}))
	flatBytes := (n+1)*int64(unsafe.Sizeof(int64(0))) + edges*c.entryBytes()
	return patchBytes*compactDen <= flatBytes*compactNum
}

// overlay builds the epoch after deltas, planned as pl, as c's base plus
// a patch: c's slot index copied, and c's tables extended by one row per
// dirty row — a delta row under its composed delta, any other merged
// into one fresh arena. A delta that composes to nothing puts the base's
// row back. It returns nil if a merge does not fill its row.
func (c *CSR) overlay(deltas []rowDelta, pl overlayPlan, edges, spent int64) *CSR {
	p := &patch{base: c, edges: edges, spent: spent}
	if old := c.patch; old != nil {
		p.base = old.base
		p.slot = slices.Clone(old.slot)
		p.rows, p.deltas = old.rows.extend(pl.copied), old.deltas.extend(pl.deltaRows)
	} else {
		p.slot = make([]int32, c.NumVertices)
		p.rows, p.deltas = table[patchRow]{}.extend(pl.copied), table[deltaRow]{}.extend(pl.deltaRows)
	}
	adj := make([]VID, pl.copies)
	var ws []float32
	if c.Weighted() {
		ws = make([]float32, pl.copies)
	}
	arena := make([]entryDelta, 0, pl.composed)
	var scratch []entryDelta
	for i := range deltas {
		d := &deltas[i]
		oa, ow, r := c.stored(d.row)
		k := int(c.Degree(d.row)) + d.grow
		if c.keepsDelta(d) {
			ch := d.ch[:len(d.ch):len(d.ch)]
			if r != nil {
				start := len(arena)
				arena = compose(arena, oa, ow, r.ch, d.ch)
				ch = arena[start:len(arena):len(arena)]
			}
			if len(ch) == 0 {
				p.slot[d.row] = 0
				continue
			}
			p.slot[d.row] = -int32(p.deltas.push(deltaRow{ch: ch, deg: k}) + 1)
			continue
		}
		row := patchRow{adj: adj[:k:k]}
		adj = adj[k:]
		if ws != nil {
			row.w, ws = ws[:k:k], ws[k:]
		}
		ch := d.ch
		if r != nil {
			scratch = compose(scratch[:0], oa, ow, r.ch, d.ch)
			ch = scratch
		}
		if mergeRow(row.adj, row.w, oa, ow, ch) != k {
			return nil
		}
		p.slot[d.row] = int32(p.rows.push(row) + 1)
	}
	p.rows.release()
	p.deltas.release()
	return &CSR{NumVertices: c.NumVertices, patch: p}
}

// flatten writes the epoch after deltas (rows ascending; none for a
// plain compaction) into a fresh flat CSR of edges entries: clean rows
// copied, delta rows and dirty rows merged. It returns nil if a merge
// does not fill its row.
func (c *CSR) flatten(deltas []rowDelta, edges int64) *CSR {
	n := c.NumVertices
	nc := &CSR{NumVertices: n, Offsets: make([]int64, n+1), Adj: make([]VID, edges)}
	weighted := c.Weighted()
	if weighted {
		nc.Weights = make([]float32, edges)
	}
	var scratch []entryDelta
	for v, di := 0, 0; v < n; v++ {
		oa, ow, r := c.stored(VID(v))
		ch, k := r.delta(), c.Degree(VID(v))
		if di < len(deltas) && deltas[di].row == VID(v) {
			d := &deltas[di]
			di++
			k += int64(d.grow)
			if ch == nil {
				ch = d.ch
			} else {
				scratch = compose(scratch[:0], oa, ow, ch, d.ch)
				ch = scratch
			}
		}
		lo, hi := nc.Offsets[v], nc.Offsets[v]+k
		var w []float32
		if weighted {
			w = nc.Weights[lo:hi]
		}
		if ch == nil {
			copy(nc.Adj[lo:hi], oa)
			copy(w, ow)
		} else if mergeRow(nc.Adj[lo:hi], w, oa, ow, ch) != int(k) {
			return nil
		}
		nc.Offsets[v+1] = hi
	}
	return nc
}

// compose appends to dst the one delta on the stored row (adj, w) that
// old — a delta on that row — followed by ch — a delta on the row old
// makes of it — amount to, both sorted by neighbor, and returns dst. An
// entry the two cancel is dropped, and so is one that puts the stored
// entry back at its stored weight. It reads the stored row only for
// that weight.
func compose(dst []entryDelta, adj []VID, w []float32, old, ch []entryDelta) []entryDelta {
	i, j := 0, 0
	for i < len(old) || j < len(ch) {
		switch {
		case j == len(ch) || i < len(old) && old[i].dst < ch[j].dst:
			dst = append(dst, old[i])
			i++
		case i == len(old) || ch[j].dst < old[i].dst:
			// Untouched by old, so ch's entry is already one on the
			// stored row.
			dst = append(dst, ch[j])
			j++
		default:
			o, e := old[i], ch[j]
			i++
			j++
			switch {
			case o.kind == Came && e.kind == Gone:
			case o.kind == Came:
				dst = append(dst, entryDelta{dst: e.dst, w: e.w, kind: Came})
			case e.kind == Gone:
				dst = append(dst, entryDelta{dst: e.dst, kind: Gone})
			default:
				// Stored, and present again at e.w: Gone then Came, or
				// reweighed twice.
				if k, _ := slices.BinarySearch(adj, e.dst); weightAt(w, k) != e.w {
					dst = append(dst, entryDelta{dst: e.dst, w: e.w, kind: Reweighed})
				}
			}
		}
	}
	return dst
}
