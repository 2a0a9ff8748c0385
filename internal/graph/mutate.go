package graph

import (
	"fmt"
	"iter"
	"slices"
	"sort"
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
// carried-forward or base row); any other row is compared whole and
// merged only when it differs.
func Diff(pre, post *CSR) iter.Seq[Change] {
	return func(yield func(Change) bool) {
		for v := 0; pre != post && v < post.NumVertices; v++ {
			u := VID(v)
			oa, ow := pre.WeightedRow(u)
			na, nw := post.WeightedRow(u)
			if sameSlice(oa, na) && sameSlice(ow, nw) || slices.Equal(oa, na) && slices.Equal(ow, nw) {
				continue
			}
			for i, j := 0, 0; i < len(oa) || j < len(na); {
				c := Change{Src: u}
				switch {
				case j == len(na) || (i < len(oa) && oa[i] < na[j]):
					c.Kind, c.Dst, c.OldW = Gone, oa[i], weightAt(ow, i)
					i++
				case i == len(oa) || na[j] < oa[i]:
					c.Kind, c.Dst, c.NewW = Came, na[j], weightAt(nw, j)
					j++
				default:
					c.Kind, c.Dst, c.OldW, c.NewW = Reweighed, oa[i], weightAt(ow, i), weightAt(nw, j)
					i++
					j++
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
// w), is Gone, or was Reweighed (to w).
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
// delta, and writes an overlay — fresh storage for the dirty rows, every
// clean row shared with c — until the patch would outgrow
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
		old := len(c.Neighbors(d.row))
		dirtyOld += int64(old)
		fresh += int64(old + d.grow)
		res.DirtyRows = append(res.DirtyRows, d.row)
	}
	res.EdgesTouched = dirtyOld + fresh
	res.CopiedEdges = c.NumEdges() - dirtyOld
	edges := res.CopiedEdges + fresh

	var nc *CSR
	if !c.patchFits(deltas, edges, fresh) {
		nc = c.flatten(deltas, edges)
	} else {
		nc = c.overlay(deltas, edges, fresh)
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
		adj, ws := c.WeightedRow(u)
		i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
		if i < len(adj) && adj[i] == v {
			p.origPresent = true
			if ws != nil {
				p.origW = ws[i]
			}
		}
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
		ch := entryDelta{dst: VID(k), w: p.w, kind: Reweighed}
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
// with the changes ch applied into adj and w (nil when unweighted), a
// two-pointer merge of the sorted old row against the sorted changes,
// and returns the number of entries written: len(adj) unless the
// changes do not fit the row. Only a Came entry can fall between old
// neighbors; a Gone or Reweighed one names an old neighbor.
func mergeRow(adj []VID, w []float32, oa []VID, ow []float32, ch []entryDelta) int {
	p, j := 0, 0
	put := func(u VID, x float32) {
		adj[p] = u
		if w != nil {
			w[p] = x
		}
		p++
	}
	for i, u := range oa {
		for ; j < len(ch) && ch[j].dst < u; j++ {
			put(ch[j].dst, ch[j].w)
		}
		x := weightAt(ow, i)
		if j < len(ch) && ch[j].dst == u {
			j++
			if ch[j-1].kind == Gone {
				continue
			}
			x = ch[j-1].w
		}
		put(u, x)
	}
	for ; j < len(ch); j++ {
		put(ch[j].dst, ch[j].w)
	}
	return p
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
