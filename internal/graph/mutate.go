package graph

import (
	"fmt"
	"iter"
	"slices"
)

// MutOp is a mutation verb.
type MutOp uint8

const (
	// MutInsert adds an edge. Inserting an edge that is already
	// present lowers its weight when the new weight is smaller
	// (matching the builder's min-weight dedup rule) and is otherwise
	// a no-op, counted in Stats.DupInserts.
	MutInsert MutOp = iota
	// MutDelete removes an edge. Deleting an absent edge is a no-op,
	// counted in Stats.MissingDeletes.
	MutDelete
)

// Mutation is one edge insert or delete. W is ignored for deletes and
// for unweighted graphs. Self-loop mutations are dropped (counted in
// Stats.SelfLoops), mirroring the builder's DropSelfLoops.
type Mutation struct {
	Op       MutOp
	Src, Dst VID
	W        float32
}

// Batch is an ordered sequence of mutations applied atomically.
type Batch []Mutation

// Validate checks every mutation against the vertex count and, for
// weighted graphs, the (0,1] weight domain that EdgeList.Validate
// enforces. The vertex set is fixed: mutations cannot grow it.
func (b Batch) Validate(numVertices int, weighted bool) error {
	n := VID(numVertices)
	for i, mu := range b {
		if mu.Op != MutInsert && mu.Op != MutDelete {
			return fmt.Errorf("graph: mutation %d has unknown op %d", i, mu.Op)
		}
		if mu.Src >= n || mu.Dst >= n {
			return fmt.Errorf("graph: mutation %d (%d->%d) out of range [0,%d)", i, mu.Src, mu.Dst, n)
		}
		if weighted && mu.Op == MutInsert && (mu.W <= 0 || mu.W > 1) {
			return fmt.Errorf("graph: mutation %d weight %v outside (0,1]", i, mu.W)
		}
	}
	return nil
}

// MutStats counts what a batch replay did, op by op.
type MutStats struct {
	Inserted       int // inserts of absent edges
	Deleted        int // deletes of present edges
	DupInserts     int // inserts of already-present edges
	MissingDeletes int // deletes of absent edges
	SelfLoops      int // self-loop mutations dropped
}

// ApplyResult reports what one Apply did: its op counts, the rows it
// rebuilt and the work of the rebuild. It does not say what changed in
// the graph: that is Diff of the two epochs, which also nets any number
// of batches, so every consumer asks it against its own baseline.
type ApplyResult struct {
	Stats MutStats
	// DirtyRows lists rows whose stored bytes changed in any way
	// (membership or weight), ascending.
	DirtyRows []VID
	// EdgesTouched is the merge work over dirty rows (old length plus
	// new length); CopiedEdges is the bulk-copy work over clean rows.
	// Both are deterministic functions of the batch and the graph, so
	// callers can charge modeled cost from them.
	EdgesTouched int64
	CopiedEdges  int64
}

// ChangeKind says how an adjacency entry differs between two epochs.
type ChangeKind uint8

const (
	Gone      ChangeKind = iota // in the earlier epoch only
	Came                        // in the later epoch only
	Reweighed                   // in both, at different weights
)

// Change is one adjacency entry, neighbor Dst in row Src, that differs
// between two epochs. OldW and NewW are its weights in the earlier and
// the later one: zero where it is absent or the graph is unweighted.
type Change struct {
	Kind       ChangeKind
	Src, Dst   VID
	OldW, NewW float32
}

// Diff yields every adjacency entry that differs between pre and post,
// two epochs of one graph (equal vertex counts, sorted rows), in (Src,
// Dst) order. It reads rows, not batch reports, so it sees the net of
// every batch between the two: an entry added and removed again is no
// change, a weight lowered by a duplicate insert or changed by a delete
// and re-insert is a reweigh. It is the one answer to "what changed
// since": the incremental maintainers ask it against their baseline
// epoch, the sketch repair against the published one. Equal pointers
// cost nothing, and so does a row both epochs share (an overlay's
// carried-forward or base row); two deltas on one base row are compared
// with each other, entry by entry; two rows stored whole are compared,
// and walked only when they differ; a delta row and any other row are
// walked whole, the delta merged on the fly. It allocates nothing per
// row.
func Diff(pre, post *CSR) iter.Seq[Change] {
	return func(yield func(Change) bool) {
		for v := 0; pre != post && v < post.NumVertices; v++ {
			u := VID(v)
			oa, ow, or := pre.stored(u)
			na, nw, nr := post.stored(u)
			if sameSlice(oa, na) && sameSlice(ow, nw) {
				if !diffDeltas(u, oa, ow, or.delta(), nr.delta(), yield) {
					return
				}
				continue
			}
			if or == nil && nr == nil && slices.Equal(oa, na) && slices.Equal(ow, nw) {
				continue
			}
			a := cursor{adj: oa, ws: ow, ch: or.delta()}
			b := cursor{adj: na, ws: nw, ch: nr.delta()}
			aok, bok := a.next(), b.next()
			for aok || bok {
				c := Change{Src: u}
				switch {
				case !bok || aok && a.u < b.u:
					c.Kind, c.Dst, c.OldW = Gone, a.u, a.w
					aok = a.next()
				case !aok || b.u < a.u:
					c.Kind, c.Dst, c.NewW = Came, b.u, b.w
					bok = b.next()
				default:
					c.Kind, c.Dst, c.OldW, c.NewW = Reweighed, a.u, a.w, b.w
					aok, bok = a.next(), b.next()
					if c.OldW == c.NewW {
						continue
					}
				}
				if !yield(c) {
					return
				}
			}
		}
	}
}

// diffDeltas yields, in Dst order, the changes from row u as old makes
// it to row u as ch makes it, two deltas (nil for none) on the one
// stored row (adj, w), and reports whether yield wants more. Neither
// row is merged: an entry only one delta names is the stored one on the
// other side, looked up in the stored row.
func diffDeltas(u VID, adj []VID, w []float32, old, ch []entryDelta, yield func(Change) bool) bool {
	if sameSlice(old, ch) {
		return true
	}
	// state is an entry's presence and weight under a delta entry e;
	// stored is the stored row's at e's neighbor.
	state := func(e entryDelta) (bool, float32) { return e.kind != Gone, e.w }
	stored := func(e entryDelta) (bool, float32) {
		if e.kind == Came {
			return false, 0
		}
		i, _ := slices.BinarySearch(adj, e.dst)
		return true, weightAt(w, i)
	}
	for i, j := 0, 0; i < len(old) || j < len(ch); {
		var x VID
		var was, is bool
		var ow, nw float32
		switch {
		case j == len(ch) || i < len(old) && old[i].dst < ch[j].dst:
			x = old[i].dst
			was, ow = state(old[i])
			is, nw = stored(old[i])
			i++
		case i == len(old) || ch[j].dst < old[i].dst:
			x = ch[j].dst
			was, ow = stored(ch[j])
			is, nw = state(ch[j])
			j++
		default:
			x = ch[j].dst
			was, ow = state(old[i])
			is, nw = state(ch[j])
			i++
			j++
		}
		c := Change{Src: u, Dst: x}
		switch {
		case was && !is:
			c.Kind, c.OldW = Gone, ow
		case is && !was:
			c.Kind, c.NewW = Came, nw
		case was && ow != nw:
			c.Kind, c.OldW, c.NewW = Reweighed, ow, nw
		default:
			continue
		}
		if !yield(c) {
			return false
		}
	}
	return true
}

// sameSlice reports whether a and b are the very same memory: one
// backing pointer, one length.
func sameSlice[E any](a, b []E) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// weightAt is the weight of a row's i-th entry: zero when it carries
// none.
func weightAt(ws []float32, i int) float32 {
	if ws == nil {
		return 0
	}
	return ws[i]
}

// MutableCSR is (*CSR).Apply with one current epoch, for one owner (it
// swaps the epoch without a lock): Apply moves it to the overlay after
// the batch, and CSR() compacts it once per read, not once per batch.
// No epoch it has handed out is ever written.
//
// The logical graph is the normalized simple graph the harness builds:
// self-loop-free, deduplicated, sorted adjacency; undirected graphs
// hold both orientations of every edge with equal (minimum) weight.
// Apply preserves exactly that normal form: the result is byte-equal
// to BuildCSR over the post-batch edge list with Symmetrize (when
// undirected), DropSelfLoops, Dedup, and Sort.
type MutableCSR struct {
	csr      *CSR
	directed bool
}

// NewMutableCSR wraps csr, which must be sorted (SortAdjacency) and
// free of duplicate neighbors — the normal form the harness and the
// engines build. The MutableCSR takes ownership of csr's evolution but
// never mutates the arrays it was given.
func NewMutableCSR(csr *CSR, directed bool) *MutableCSR {
	return &MutableCSR{csr: csr, directed: directed}
}

// CSR returns the current epoch flat (Offsets, Adj and Weights set),
// compacting an overlay once and keeping it: two reads with no Apply
// between them return one pointer. The caller must not modify it; it
// remains valid (frozen) after subsequent Applies.
func (m *MutableCSR) CSR() *CSR {
	m.csr = m.csr.Flat()
	return m.csr
}

// Apply moves the current epoch to (*CSR).Apply's epoch after the
// batch, atomically: on any validation error the structure is
// untouched. The ApplyResult does not depend on the epoch's row form.
func (m *MutableCSR) Apply(batch Batch) (*ApplyResult, error) {
	nc, res, err := m.csr.Apply(batch, m.directed)
	if err != nil {
		return nil, err
	}
	m.csr = nc
	return res, nil
}

// pairState tracks one directed (src,dst) pair across a batch replay:
// its presence and weight before the batch and currently.
type pairState struct {
	origPresent bool
	present     bool
	origW       float32
	w           float32
}

// entryDelta is one entry of a row's net change: neighbor dst Came (at
// w), is Gone, or was Reweighed (to w); w is zero when unweighted. A
// delta row keeps its entries against the base's row.
type entryDelta struct {
	dst  VID
	w    float32
	kind ChangeKind
}

// rowDelta is the net change to one adjacency row: its entries
// ascending by neighbor, and the length they add to the row.
type rowDelta struct {
	row  VID
	grow int
	ch   []entryDelta
}

// Apply returns the epoch after batch: the one batch application. It
// replays the batch to final outcomes, extracts each dirty row's net
// delta, and writes an overlay — each dirty hub row as a delta on the
// base's row, composed with the one it had, each other dirty row copied,
// every clean row shared with c — until the patch would outgrow
// compactNum/compactDen of the graph, when it compacts into a flat CSR;
// only that bound and Flat() flatten. The logical graph is byte-equal
// to BuildCSR over the post-batch edge list; with no net change it is c
// itself. c is never written, so every earlier epoch stays readable.
// The ApplyResult prices a whole rebuild either way: the modeled clock
// does not see the overlay.
func (c *CSR) Apply(batch Batch, directed bool) (*CSR, *ApplyResult, error) {
	weighted := c.Weighted()
	if err := batch.Validate(c.NumVertices, weighted); err != nil {
		return nil, nil, err
	}
	res := &ApplyResult{}
	deltas := c.replay(batch, directed, weighted, &res.Stats)
	if len(deltas) == 0 {
		return c, res, nil
	}
	var dirtyOld, fresh int64
	for i := range deltas {
		d := &deltas[i]
		old := int(c.Degree(d.row))
		dirtyOld += int64(old)
		fresh += int64(old + d.grow)
		res.DirtyRows = append(res.DirtyRows, d.row)
	}
	res.EdgesTouched = dirtyOld + fresh
	res.CopiedEdges = c.NumEdges() - dirtyOld
	edges := res.CopiedEdges + fresh

	pl := c.plan(deltas)
	spent := pl.spent(c.entryBytes())
	if c.patch != nil {
		spent += c.patch.spent
	}
	var nc *CSR
	if !c.patchFits(pl, edges, spent) {
		nc = c.flatten(deltas, edges)
	} else {
		nc = c.overlay(deltas, pl, edges, spent)
	}
	if nc == nil {
		return nil, nil, fmt.Errorf("graph: a row merge wrote the wrong number of entries (corrupt overlay state)")
	}
	return nc, res, nil
}

// replay runs the batch to final outcomes against c and returns the net
// delta of every dirty row, rows ascending. Undirected graphs apply
// both orientations; stats count logical ops once.
func (c *CSR) replay(batch Batch, directed, weighted bool, stats *MutStats) []rowDelta {
	// An op touches at most one pair, two when undirected, so states
	// never regrows and the pointers lookup hands out stay valid.
	pairs := len(batch)
	if !directed {
		pairs *= 2
	}
	states := make([]pairState, 0, pairs)
	index := make(map[uint64]int32, pairs)
	lookup := func(u, v VID) *pairState {
		k := uint64(u)<<32 | uint64(v)
		if i, ok := index[k]; ok {
			return &states[i]
		}
		var p pairState
		p.origPresent, p.origW = c.find(u, v)
		p.present, p.w = p.origPresent, p.origW
		index[k] = int32(len(states))
		states = append(states, p)
		return &states[len(states)-1]
	}

	for _, mu := range batch {
		if mu.Src == mu.Dst {
			stats.SelfLoops++
			continue
		}
		p := lookup(mu.Src, mu.Dst)
		switch mu.Op {
		case MutInsert:
			if p.present {
				stats.DupInserts++
				if weighted && mu.W < p.w {
					p.w = mu.W
					if !directed {
						lookup(mu.Dst, mu.Src).w = mu.W
					}
				}
			} else {
				stats.Inserted++
				p.present, p.w = true, mu.W
				if !directed {
					q := lookup(mu.Dst, mu.Src)
					q.present, q.w = true, mu.W
				}
			}
		case MutDelete:
			if !p.present {
				stats.MissingDeletes++
			} else {
				stats.Deleted++
				p.present = false
				if !directed {
					lookup(mu.Dst, mu.Src).present = false
				}
			}
		}
	}

	// Extract net deltas in deterministic (src,dst) order. The uint64
	// key sorts exactly that way, so rows come out ascending and each
	// row's entries ascending by neighbor.
	keys := make([]uint64, 0, len(index))
	for k, i := range index {
		if p := &states[i]; p.present != p.origPresent || (weighted && p.present && p.w != p.origW) {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	changes := make([]entryDelta, len(keys))
	deltas := make([]rowDelta, 0, len(keys))
	for i, k := range keys {
		u, p := VID(k>>32), &states[index[k]]
		ch := entryDelta{dst: VID(k), kind: Reweighed}
		if weighted {
			ch.w = p.w
		}
		if len(deltas) == 0 || deltas[len(deltas)-1].row != u {
			deltas = append(deltas, rowDelta{row: u, ch: changes[i:i]})
		}
		d := &deltas[len(deltas)-1]
		switch {
		case p.present && !p.origPresent:
			ch.kind = Came
			d.grow++
		case !p.present && p.origPresent:
			ch.kind = Gone
			d.grow--
		}
		changes[i] = ch
		d.ch = d.ch[:len(d.ch)+1]
	}
	return deltas
}

// mergeRow writes the old row (oa, weights ow, nil when unweighted)
// with the changes ch applied into adj and w (nil when unweighted), and
// returns the number of entries written: len(adj) unless the changes do
// not fit the row, when it returns -1. Each change finds its place in
// the old row by a search from the previous one's (seek) and the runs
// of old entries between changes are copied whole, so a long row under
// a few changes merges at copy speed. Only a Came entry can fall
// between old neighbors; a Gone or Reweighed one names an old neighbor.
func mergeRow(adj []VID, w []float32, oa []VID, ow []float32, ch []entryDelta) int {
	p, i := 0, 0
	for _, e := range ch {
		k, named := seek(oa[i:], e.dst)
		if p+k > len(adj) {
			return -1
		}
		copy(adj[p:], oa[i:i+k])
		if w != nil {
			copy(w[p:], ow[i:i+k])
		}
		p, i = p+k, i+k
		if named {
			i++
		}
		if e.kind == Gone {
			continue
		}
		if p == len(adj) {
			return -1
		}
		adj[p] = e.dst
		if w != nil {
			w[p] = e.w
		}
		p++
	}
	if p+len(oa)-i > len(adj) {
		return -1
	}
	copy(adj[p:], oa[i:])
	if w != nil {
		copy(w[p:], ow[i:])
	}
	return p + len(oa) - i
}

// seek is slices.BinarySearch(row, x) for x near the front of row: it
// doubles a bound until it passes x, then searches below it, so it
// costs the log of x's position, not of the row's length.
func seek(row []VID, x VID) (int, bool) {
	hi := 1
	for hi < len(row) && row[hi-1] < x {
		hi *= 2
	}
	return slices.BinarySearch(row[:min(hi, len(row))], x)
}

// Reversed returns the batch with every mutation's endpoints swapped —
// the batch to apply to an in-adjacency (transpose) structure so it
// tracks the same logical updates as the out-adjacency.
func (b Batch) Reversed() Batch {
	r := make(Batch, len(b))
	for i, mu := range b {
		r[i] = Mutation{Op: mu.Op, Src: mu.Dst, Dst: mu.Src, W: mu.W}
	}
	return r
}
