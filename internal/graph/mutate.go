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
// cost nothing; otherwise each row is compared whole and merged only
// when it differs.
func Diff(pre, post *CSR) iter.Seq[Change] {
	return func(yield func(Change) bool) {
		for v := 0; pre != post && v < post.NumVertices; v++ {
			u := VID(v)
			oa, ow := pre.WeightedRow(u)
			na, nw := post.WeightedRow(u)
			if slices.Equal(oa, na) && slices.Equal(ow, nw) {
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

// weightAt is the weight of a row's i-th entry: zero when it carries
// none.
func weightAt(ws []float32, i int) float32 {
	if ws == nil {
		return 0
	}
	return ws[i]
}

// MutableCSR wraps a sorted, deduplicated CSR with batched edge
// mutation. Apply never modifies the wrapped arrays: it rebuilds into
// fresh storage and swaps, so readers holding the previous CSR()
// snapshot stay coherent — the epoch-rebuild discipline the serving
// daemon's generation-counted swap relies on.
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
	weighted bool
}

// NewMutableCSR wraps csr, which must be sorted (SortAdjacency) and
// free of duplicate neighbors — the normal form the harness and the
// engines build. The MutableCSR takes ownership of csr's evolution but
// never mutates the arrays it was given.
func NewMutableCSR(csr *CSR, directed bool) *MutableCSR {
	return &MutableCSR{csr: csr, directed: directed, weighted: csr.Weights != nil}
}

// CSR returns the current epoch's structure. The caller must not
// modify it; it remains valid (frozen) after subsequent Applies.
func (m *MutableCSR) CSR() *CSR { return m.csr }

// NumVertices returns the fixed vertex count.
func (m *MutableCSR) NumVertices() int { return m.csr.NumVertices }

// pairState tracks one directed (src,dst) pair across a batch replay:
// its presence and weight before the batch and currently.
type pairState struct {
	origPresent bool
	present     bool
	origW       float32
	w           float32
}

// rowDelta is the net change to one adjacency row, every slice sorted
// ascending by neighbor.
type rowDelta struct {
	adds []Edge    // net-new entries (Src = row)
	dels []VID     // net-removed neighbors
	wch  []VID     // surviving neighbors whose weight changed
	wchW []float32 // new weights parallel to wch
}

// Apply replays the batch in order against the current epoch and
// rebuilds the touched rows into a fresh CSR. It is atomic: on any
// validation error the structure is untouched. The replay, the delta
// extraction, and the rebuild are all serial and ordered, so the
// result — structure and ApplyResult alike — is a pure function of
// (previous epoch, batch), independent of run and worker count.
func (m *MutableCSR) Apply(batch Batch) (*ApplyResult, error) {
	c := m.csr
	if err := batch.Validate(c.NumVertices, m.weighted); err != nil {
		return nil, err
	}

	res := &ApplyResult{}
	state := make(map[uint64]*pairState)
	lookup := func(u, v VID) *pairState {
		k := uint64(u)<<32 | uint64(v)
		if p, ok := state[k]; ok {
			return p
		}
		p := &pairState{}
		adj := c.Neighbors(u)
		i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
		if i < len(adj) && adj[i] == v {
			p.origPresent = true
			if m.weighted {
				p.origW = c.Weights[c.Offsets[u]+int64(i)]
			}
		}
		p.present, p.w = p.origPresent, p.origW
		state[k] = p
		return p
	}

	// Replay to final outcomes. Undirected graphs apply both
	// orientations; stats count logical ops once.
	for _, mu := range batch {
		if mu.Src == mu.Dst {
			res.Stats.SelfLoops++
			continue
		}
		p := lookup(mu.Src, mu.Dst)
		switch mu.Op {
		case MutInsert:
			if p.present {
				res.Stats.DupInserts++
				if m.weighted && mu.W < p.w {
					p.w = mu.W
					if !m.directed {
						lookup(mu.Dst, mu.Src).w = mu.W
					}
				}
			} else {
				res.Stats.Inserted++
				p.present, p.w = true, mu.W
				if !m.directed {
					q := lookup(mu.Dst, mu.Src)
					q.present, q.w = true, mu.W
				}
			}
		case MutDelete:
			if !p.present {
				res.Stats.MissingDeletes++
			} else {
				res.Stats.Deleted++
				p.present = false
				if !m.directed {
					lookup(mu.Dst, mu.Src).present = false
				}
			}
		}
	}

	// Extract net deltas in deterministic (src,dst) order. The uint64
	// key sorts exactly that way.
	keys := make([]uint64, 0, len(state))
	for k, p := range state {
		if p.present != p.origPresent || (m.weighted && p.present && p.w != p.origW) {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if len(keys) == 0 {
		return res, nil
	}

	deltas := make(map[VID]*rowDelta)
	for _, k := range keys {
		u, v := VID(k>>32), VID(k&0xffffffff)
		p := state[k]
		d := deltas[u]
		if d == nil {
			d = &rowDelta{}
			deltas[u] = d
		}
		switch {
		case p.present && !p.origPresent:
			d.adds = append(d.adds, Edge{Src: u, Dst: v, W: p.w})
		case !p.present && p.origPresent:
			d.dels = append(d.dels, v)
		default: // weight change on a surviving edge
			d.wch = append(d.wch, v)
			d.wchW = append(d.wchW, p.w)
		}
	}
	// keys are in sorted order, so each rowDelta's slices are ascending
	// by neighbor.

	// New offsets: serial prefix sum over adjusted degrees.
	n := c.NumVertices
	nc := &CSR{
		NumVertices: n,
		Offsets:     make([]int64, n+1),
	}
	for v := 0; v < n; v++ {
		deg := c.Offsets[v+1] - c.Offsets[v]
		if d, ok := deltas[VID(v)]; ok {
			deg += int64(len(d.adds) - len(d.dels))
		}
		nc.Offsets[v+1] = nc.Offsets[v] + deg
	}
	total := nc.Offsets[n]
	nc.Adj = make([]VID, total)
	if m.weighted {
		nc.Weights = make([]float32, total)
	}

	// Rebuild: clean rows bulk-copy, dirty rows three-pointer merge of
	// the sorted old row against sorted adds/dels/weight-changes.
	for v := 0; v < n; v++ {
		oldLo, oldHi := c.Offsets[v], c.Offsets[v+1]
		p := nc.Offsets[v]
		d, ok := deltas[VID(v)]
		if !ok {
			copy(nc.Adj[p:], c.Adj[oldLo:oldHi])
			if m.weighted {
				copy(nc.Weights[p:], c.Weights[oldLo:oldHi])
			}
			res.CopiedEdges += oldHi - oldLo
			continue
		}
		res.EdgesTouched += (oldHi - oldLo) + (nc.Offsets[v+1] - nc.Offsets[v])
		res.DirtyRows = append(res.DirtyRows, VID(v))
		ai, di, wi := 0, 0, 0
		for i := oldLo; i < oldHi; i++ {
			u := c.Adj[i]
			// Emit pending adds that precede this old neighbor. An
			// add can never equal a surviving old neighbor (adds are
			// net-absent-before), so strict order suffices.
			for ai < len(d.adds) && d.adds[ai].Dst < u {
				nc.Adj[p] = d.adds[ai].Dst
				if m.weighted {
					nc.Weights[p] = d.adds[ai].W
				}
				p++
				ai++
			}
			if di < len(d.dels) && d.dels[di] == u {
				di++
				continue
			}
			nc.Adj[p] = u
			if m.weighted {
				w := c.Weights[i]
				if wi < len(d.wch) && d.wch[wi] == u {
					w = d.wchW[wi]
					wi++
				}
				nc.Weights[p] = w
			}
			p++
		}
		for ai < len(d.adds) {
			nc.Adj[p] = d.adds[ai].Dst
			if m.weighted {
				nc.Weights[p] = d.adds[ai].W
			}
			p++
			ai++
		}
		if p != nc.Offsets[v+1] {
			return nil, fmt.Errorf("graph: row %d merge wrote %d entries, want %d (corrupt overlay state)", v, p-nc.Offsets[v], nc.Offsets[v+1]-nc.Offsets[v])
		}
	}

	m.csr = nc
	return res, nil
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
