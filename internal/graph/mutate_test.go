package graph

import (
	"cmp"
	"maps"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"github.com/hpcl-repro/epg/internal/alloctest"
	"github.com/hpcl-repro/epg/internal/xrand"
)

// buildNormalized builds the normal form the harness hands engines:
// symmetrized (when undirected), self-loop-free, deduplicated, sorted.
func buildNormalized(el *EdgeList) *CSR {
	return BuildCSR(el, BuildOptions{
		Symmetrize:    !el.Directed,
		DropSelfLoops: true,
		Dedup:         true,
		Sort:          true,
	})
}

func csrEqual(a, b *CSR) bool {
	if a.NumVertices != b.NumVertices || len(a.Offsets) != len(b.Offsets) ||
		len(a.Adj) != len(b.Adj) || (a.Weights == nil) != (b.Weights == nil) {
		return false
	}
	for i := range a.Offsets {
		if a.Offsets[i] != b.Offsets[i] {
			return false
		}
	}
	for i := range a.Adj {
		if a.Adj[i] != b.Adj[i] {
			return false
		}
	}
	if a.Weights != nil {
		if len(a.Weights) != len(b.Weights) {
			return false
		}
		for i := range a.Weights {
			if a.Weights[i] != b.Weights[i] {
				return false
			}
		}
	}
	return true
}

// mutModel is the specification oracle: a map of logical edges replayed
// with the documented semantics (self-loops dropped, duplicate insert
// takes the minimum weight, delete of an absent edge is a no-op),
// rebuilt from scratch through BuildCSR after every batch.
type mutModel struct {
	n        int
	directed bool
	weighted bool
	edges    map[uint64]float32
}

func (m *mutModel) key(u, v VID) uint64 {
	if !m.directed && u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

func newMutModelFromCSR(c *CSR, directed bool) *mutModel {
	m := &mutModel{n: c.NumVertices, directed: directed, weighted: c.Weights != nil, edges: make(map[uint64]float32)}
	for v := 0; v < c.NumVertices; v++ {
		adj := c.Neighbors(VID(v))
		ws := c.NeighborWeights(VID(v))
		for i, u := range adj {
			if !directed && u < VID(v) {
				continue // one canonical orientation suffices
			}
			var w float32
			if ws != nil {
				w = ws[i]
			}
			m.edges[m.key(VID(v), u)] = w
		}
	}
	return m
}

func (m *mutModel) apply(b Batch) {
	for _, mu := range b {
		if mu.Src == mu.Dst {
			continue
		}
		k := m.key(mu.Src, mu.Dst)
		w, ok := m.edges[k]
		switch mu.Op {
		case MutInsert:
			switch {
			case !ok:
				if m.weighted {
					m.edges[k] = mu.W
				} else {
					m.edges[k] = 0
				}
			case m.weighted && mu.W < w:
				m.edges[k] = mu.W
			}
		case MutDelete:
			if ok {
				delete(m.edges, k)
			}
		}
	}
}

func (m *mutModel) rebuild() *CSR {
	keys := make([]uint64, 0, len(m.edges))
	for k := range m.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	el := &EdgeList{NumVertices: m.n, Weighted: m.weighted, Directed: m.directed}
	for _, k := range keys {
		el.Edges = append(el.Edges, Edge{Src: VID(k >> 32), Dst: VID(k & 0xffffffff), W: m.edges[k]})
	}
	return buildNormalized(el)
}

func TestMutableCSREmptyBatch(t *testing.T) {
	el := randomEdgeList(1, 32, 128, false)
	c := buildNormalized(el)
	mc := NewMutableCSR(c, false)
	res, err := mc.Apply(nil)
	if err != nil {
		t.Fatalf("Apply(nil): %v", err)
	}
	if mc.CSR() != c {
		t.Fatalf("empty batch rebuilt the structure")
	}
	if res.Stats != (MutStats{}) || len(res.DirtyRows) != 0 {
		t.Fatalf("empty batch reported work: %+v", res)
	}
}

func TestMutableCSRDuplicateInsertUnweighted(t *testing.T) {
	el := &EdgeList{NumVertices: 4, Edges: []Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}}
	c := buildNormalized(el)
	mc := NewMutableCSR(c, false)
	res, err := mc.Apply(Batch{{Op: MutInsert, Src: 0, Dst: 1}, {Op: MutInsert, Src: 1, Dst: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DupInserts != 2 || res.Stats.Inserted != 0 {
		t.Fatalf("stats = %+v, want 2 dup inserts", res.Stats)
	}
	if mc.CSR() != c {
		t.Fatalf("no-op duplicate inserts rebuilt the structure")
	}
}

func TestMutableCSRDuplicateInsertWeightedMinRule(t *testing.T) {
	el := &EdgeList{NumVertices: 4, Weighted: true, Edges: []Edge{{Src: 0, Dst: 1, W: 0.5}}}
	c := buildNormalized(el)
	mc := NewMutableCSR(c, false)

	// A higher weight is a pure no-op.
	if _, err := mc.Apply(Batch{{Op: MutInsert, Src: 0, Dst: 1, W: 0.9}}); err != nil {
		t.Fatal(err)
	}
	if mc.CSR() != c {
		t.Fatalf("higher-weight duplicate insert rebuilt the structure")
	}

	// A lower weight updates both orientations without touching
	// membership: dirty but not structural.
	res, err := mc.Apply(Batch{{Op: MutInsert, Src: 0, Dst: 1, W: 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DupInserts != 1 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	if got := len(res.DirtyRows); got != 2 {
		t.Fatalf("DirtyRows = %v, want rows 0 and 1", res.DirtyRows)
	}
	want := []Change{{Kind: Reweighed, Src: 0, Dst: 1, OldW: 0.5, NewW: 0.25}, {Kind: Reweighed, Src: 1, Dst: 0, OldW: 0.5, NewW: 0.25}}
	if got := slices.Collect(Diff(c, mc.CSR())); !slices.Equal(got, want) {
		t.Fatalf("weight-only change diffs as %+v, want two reweighs", got)
	}
	if w := mc.CSR().NeighborWeights(0)[0]; w != 0.25 {
		t.Fatalf("weight after min-rule insert = %v, want 0.25", w)
	}
	if w := mc.CSR().NeighborWeights(1)[0]; w != 0.25 {
		t.Fatalf("mirror weight after min-rule insert = %v, want 0.25", w)
	}
}

func TestMutableCSRDeleteNonexistent(t *testing.T) {
	el := &EdgeList{NumVertices: 4, Edges: []Edge{{Src: 0, Dst: 1}}}
	c := buildNormalized(el)
	mc := NewMutableCSR(c, false)
	res, err := mc.Apply(Batch{{Op: MutDelete, Src: 2, Dst: 3}, {Op: MutDelete, Src: 0, Dst: 1}, {Op: MutDelete, Src: 0, Dst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// The second delete of (0,1) hits an already-removed edge.
	if res.Stats.MissingDeletes != 2 || res.Stats.Deleted != 1 {
		t.Fatalf("stats = %+v, want 1 delete + 2 missing", res.Stats)
	}
	if got := mc.CSR().NumEdges(); got != 0 {
		t.Fatalf("edges after delete = %d, want 0", got)
	}
}

func TestMutableCSRSelfLoopsDropped(t *testing.T) {
	el := &EdgeList{NumVertices: 4, Edges: []Edge{{Src: 0, Dst: 1}}}
	c := buildNormalized(el)
	mc := NewMutableCSR(c, false)
	res, err := mc.Apply(Batch{{Op: MutInsert, Src: 2, Dst: 2}, {Op: MutDelete, Src: 3, Dst: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SelfLoops != 2 {
		t.Fatalf("stats = %+v, want 2 self-loops", res.Stats)
	}
	if mc.CSR() != c {
		t.Fatalf("self-loop-only batch rebuilt the structure")
	}
}

// A delete+insert pair on the same row preserves its degree while
// changing membership — the case that makes a degree compare alone an
// insufficient dirtiness signal for the incremental maintainers.
func TestMutableCSRDegreePreservingMembershipChange(t *testing.T) {
	el := &EdgeList{NumVertices: 5, Directed: true, Edges: []Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}}}
	c := buildNormalized(el)
	mc := NewMutableCSR(c, true)
	res, err := mc.Apply(Batch{{Op: MutDelete, Src: 0, Dst: 1}, {Op: MutInsert, Src: 0, Dst: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DirtyRows) != 1 || res.DirtyRows[0] != 0 {
		t.Fatalf("DirtyRows = %v, want [0]", res.DirtyRows)
	}
	want := []Change{{Kind: Gone, Src: 0, Dst: 1}, {Kind: Came, Src: 0, Dst: 3}}
	if got := slices.Collect(Diff(c, mc.CSR())); !slices.Equal(got, want) {
		t.Fatalf("swap diffs as %+v, want %+v", got, want)
	}
	if mc.CSR().Degree(0) != c.Degree(0) {
		t.Fatalf("row 0 degree %d, was %d", mc.CSR().Degree(0), c.Degree(0))
	}
	if got := mc.CSR().Neighbors(0); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("row 0 = %v, want [2 3]", got)
	}
}

// Apply must be atomic: a validation error leaves the structure (and
// the wrapped pointer) untouched even when earlier mutations in the
// batch were valid.
func TestMutableCSRApplyAtomicOnError(t *testing.T) {
	el := &EdgeList{NumVertices: 4, Edges: []Edge{{Src: 0, Dst: 1}}}
	c := buildNormalized(el)
	mc := NewMutableCSR(c, false)
	_, err := mc.Apply(Batch{{Op: MutInsert, Src: 2, Dst: 3}, {Op: MutInsert, Src: 0, Dst: 99}})
	if err == nil {
		t.Fatalf("out-of-range mutation accepted")
	}
	if mc.CSR() != c {
		t.Fatalf("failed Apply replaced the structure")
	}
	if _, err := mc.Apply(Batch{{Op: MutOp(9), Src: 0, Dst: 1}}); err == nil {
		t.Fatalf("unknown op accepted")
	}
}

// Previous epochs stay frozen: readers holding the old CSR see it
// unchanged after Apply swaps in the next epoch.
func TestMutableCSREpochFrozen(t *testing.T) {
	el := randomEdgeList(3, 64, 256, true)
	c := buildNormalized(el)
	mc := NewMutableCSR(c, false)
	adjBefore := append([]VID(nil), c.Adj...)
	offBefore := append([]int64(nil), c.Offsets...)
	// Delete an edge guaranteed present so the batch has a net effect.
	var v0 VID
	for c.Degree(v0) == 0 {
		v0++
	}
	u0 := c.Neighbors(v0)[0]
	if _, err := mc.Apply(Batch{{Op: MutDelete, Src: v0, Dst: u0}}); err != nil {
		t.Fatal(err)
	}
	if mc.CSR() == c {
		t.Fatalf("Apply with net changes did not swap epochs")
	}
	for i := range adjBefore {
		if c.Adj[i] != adjBefore[i] {
			t.Fatalf("old epoch adjacency mutated at %d", i)
		}
	}
	for i := range offBefore {
		if c.Offsets[i] != offBefore[i] {
			t.Fatalf("old epoch offsets mutated at %d", i)
		}
	}
}

// replayBytesPerOp is the allowance per op for what a replay allocates
// beside the epoch: its pair states, pair index, sorted keys, entry
// deltas and row deltas (an op touches two pairs when undirected), the
// ApplyResult's DirtyRows and size-class rounding. A 32-op undirected
// batch reads about 220 B per op.
const replayBytesPerOp = 320

// hubEdgeList is randomEdgeList with hubs: vertices 0..hubs-1 each
// joined to hubDeg random vertices besides.
func hubEdgeList(seed uint64, n, m, hubs, hubDeg int) *EdgeList {
	el := randomEdgeList(seed, n, m, true)
	r := xrand.New(seed ^ 0x4b1d)
	for h := range hubs {
		for range hubDeg {
			el.Edges = append(el.Edges, Edge{Src: VID(h), Dst: VID(r.Intn(n)), W: r.Float32()/2 + 0.25})
		}
	}
	return el
}

// hubBatch is ops mutations on c, half of them on a hub's row: a
// delete of one of its stored entries or an insert from it; the rest
// random inserts.
func hubBatch(r *xrand.RNG, c *CSR, hubs, ops int) Batch {
	b := make(Batch, 0, ops)
	for i := range ops {
		mu := Mutation{Op: MutInsert, Src: VID(r.Intn(c.NumVertices)), Dst: VID(r.Intn(c.NumVertices)), W: float32(r.Intn(100)+1) / 100}
		if i%2 == 0 {
			mu.Src = VID(r.Intn(hubs))
			if i%4 == 0 {
				adj := c.Neighbors(mu.Src)
				mu.Op, mu.Dst, mu.W = MutDelete, adj[r.Intn(len(adj))], 0
			}
		}
		b = append(b, mu)
	}
	return b
}

// applyBound is what Apply from pre to post may allocate when its
// allocation follows the changed entries: the slot index; the two row
// tables, at most twice what pre's and the batch's rows take (a table
// grows a block at a time, and a sibling copies its block list and last
// block); each copied dirty row's entries,
// rows below the delta floor or the ones whose delta outgrew its share;
// each delta row's composed delta, at most pre's delta plus the row's
// changes (a fresh delta row keeps the replay's own entries); and the
// replay. It also returns what copying every dirty row whole would
// allocate instead, the bound before delta rows.
func applyBound(pre, post *CSR, res *ApplyResult, ops int) (bound, whole uint64) {
	entry := uint64(unsafe.Sizeof(VID(0)) + unsafe.Sizeof(float32(0)))
	changes := map[VID]uint64{}
	for c := range Diff(pre, post) {
		changes[c.Src]++
	}
	dirty := uint64(len(res.DirtyRows))
	var rows, deltaRows uint64
	if pre.patch != nil {
		rows, deltaRows = uint64(pre.patch.rows.n), uint64(pre.patch.deltas.n)
	}
	slot := uint64(pre.NumVertices) * uint64(unsafe.Sizeof(int32(0)))
	tables := 2*(rows+dirty)*uint64(unsafe.Sizeof(patchRow{})) + 2*(deltaRows+dirty)*uint64(unsafe.Sizeof(deltaRow{}))
	bound = slot + tables + replayBytesPerOp*uint64(ops)
	whole = bound
	for _, v := range res.DirtyRows {
		whole += uint64(post.Degree(v)) * entry
		_, _, r := post.stored(v)
		if r == nil {
			bound += uint64(post.Degree(v)) * entry
			continue
		}
		_, _, old := pre.stored(v)
		bound += (uint64(len(old.delta())) + changes[v]) * uint64(unsafe.Sizeof(entryDelta{}))
	}
	return bound, whole
}

// A MutableCSR.Apply on a hub graph allocates what follows the changed
// entries — the slot index, the row table's growth, the small rows it
// copies and the deltas of the hub rows — plus the replay's bookkeeping,
// not the dirty hub rows whole and not a flat epoch; so does a second
// Apply on that overlay, which composes the hub rows' deltas. And CSR()
// compacts once per read: two reads with no Apply between them return
// one flat CSR, whose raw arrays a caller may compare.
func TestMutableCSRApplyAllocFollowsDirtyRows(t *testing.T) {
	const n, hubs = 4096, 8
	c := buildNormalized(hubEdgeList(41, n, 8*n, hubs, 1024))
	r := xrand.New(41)
	batch := hubBatch(r, c, hubs, 32)
	mc := NewMutableCSR(c, false)
	res, err := mc.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	next := mc.csr
	second := hubBatch(r, next, hubs, 32)
	after, res2, err := next.Apply(second, false)
	if err != nil {
		t.Fatal(err)
	}
	first := alloctest.FewestBytes(8, func() {
		if _, err := NewMutableCSR(c, false).Apply(batch); err != nil {
			t.Fatal(err)
		}
	})
	composed := alloctest.FewestBytes(8, func() {
		if _, _, err := next.Apply(second, false); err != nil {
			t.Fatal(err)
		}
	})
	flat := uint64(n+1)*uint64(unsafe.Sizeof(int64(0))) + uint64(c.NumEdges())*uint64(unsafe.Sizeof(VID(0))+unsafe.Sizeof(float32(0)))
	for _, m := range []struct {
		name      string
		pre, post *CSR
		res       *ApplyResult
		per       uint64
	}{{"flat", c, next, res, first}, {"overlay", next, after, res2, composed}} {
		bound, whole := applyBound(m.pre, m.post, m.res, len(batch))
		t.Logf("Apply of %d ops on the %s epoch, %d dirty rows, %d of them deltas: %d B; bound %d B; the dirty rows whole %d B; flat epoch %d B",
			len(batch), m.name, len(m.res.DirtyRows), m.post.DeltaRows(), m.per, bound, whole, flat)
		switch {
		case m.post.patch == nil || m.post.DeltaRows() == 0:
			t.Fatalf("the Apply on the %s epoch made no overlay with delta rows; the wall measures one", m.name)
		case m.per > bound:
			t.Fatalf("a 32-op Apply on the %s epoch allocates %d B; bound %d B (slot index, row table, small rows, deltas, replay)", m.name, m.per, bound)
		case 2*m.per > whole:
			t.Fatalf("a 32-op Apply on the %s epoch allocates %d B; copying its dirty rows whole takes %d B, want at least twice that", m.name, m.per, whole)
		case m.per >= flat/8:
			t.Fatalf("a 32-op Apply on the %s epoch allocates %d B; want under an eighth of the flat epoch's %d B", m.name, m.per, flat)
		}
	}
	read := mc.CSR()
	if read.Offsets == nil || read.patch != nil {
		t.Fatal("CSR() of an overlay epoch is not flat")
	}
	if mc.CSR() != read {
		t.Fatal("a second CSR() with no Apply between compacted again")
	}
	if !csrEqual(read, next.Flat()) {
		t.Fatal("CSR() differs from the overlay's rows")
	}
}

// Random mutation streams across all four (directed × weighted)
// shapes: after every batch the MutableCSR's read must be byte-equal to
// a from-scratch BuildCSR over the model's post-batch edge set, the
// independent oracle, and Diff of the two epochs must be the model's net
// change (checkNetChange); the same batches chained through
// (*CSR).Apply with no flattened read between them, a branch off the
// parent after each, must report the MutableCSR's ApplyResult (it does
// not depend on the parent's row form) and keep every epoch equal to
// its rebuild.
func TestMutableCSRRandomStreamsMatchRebuild(t *testing.T) {
	var overlays, flats int
	for _, directed := range []bool{false, true} {
		for _, weighted := range []bool{false, true} {
			for seed := uint64(1); seed <= 8; seed++ {
				el := randomEdgeList(seed, 48, 192, weighted)
				el.Directed = directed
				c := buildNormalized(el)
				mc := NewMutableCSR(c, directed)
				model := newMutModelFromCSR(c, directed)
				chain := newEpochChain(t, c, directed)
				r, br := xrand.New(seed^0xfeed), xrand.New(seed)
				for batchIdx := 0; batchIdx < 6; batchIdx++ {
					b := randomBatch(r, 48, 24, weighted)
					pre, before := mc.CSR(), maps.Clone(model.edges)
					res, err := mc.Apply(b)
					if err != nil {
						t.Fatalf("directed=%v weighted=%v seed=%d batch=%d: %v", directed, weighted, seed, batchIdx, err)
					}
					model.apply(b)
					want := model.rebuild()
					if !csrEqual(mc.CSR(), want) {
						t.Fatalf("directed=%v weighted=%v seed=%d batch=%d: MutableCSR diverges from rebuild", directed, weighted, seed, batchIdx)
					}
					checkNetChange(t, res, pre, mc.CSR(), before, model)
					chain.flush(b, res, before, model, want)
					chain.branch(randomBatch(br, 48, 3, weighted))
				}
				overlays, flats = overlays+chain.overlays, flats+chain.flats
			}
		}
	}
	if overlays == 0 || flats == 0 {
		t.Fatalf("the streams made %d overlay and %d flat epochs; want both kinds", overlays, flats)
	}
}

func randomBatch(r *xrand.RNG, n, ops int, weighted bool) Batch {
	b := make(Batch, 0, ops)
	for i := 0; i < ops; i++ {
		mu := Mutation{Src: VID(r.Intn(n)), Dst: VID(r.Intn(n))}
		if r.Intn(3) == 0 {
			mu.Op = MutDelete
		} else {
			mu.Op = MutInsert
			if weighted {
				mu.W = float32(r.Intn(100)+1) / 100
			}
		}
		b = append(b, mu)
	}
	return b
}

// checkNetChange holds one Apply, from pre to post, to the model, whose
// edge set was before: Diff must list exactly the entries whose presence
// or weight the model's net change moved, both orientations of an
// undirected edge, in (Src, Dst) order, and DirtyRows must be their rows.
func checkNetChange(t *testing.T, res *ApplyResult, pre, post *CSR, before map[uint64]float32, model *mutModel) {
	t.Helper()
	var want []Change
	note := func(k uint64) {
		was, wasIn := before[k]
		is, isIn := model.edges[k]
		c := Change{Src: VID(k >> 32), Dst: VID(k & 0xffffffff)}
		switch {
		case isIn && !wasIn:
			c.Kind, c.NewW = Came, is
		case wasIn && !isIn:
			c.Kind, c.OldW = Gone, was
		case wasIn && was != is:
			c.Kind, c.OldW, c.NewW = Reweighed, was, is
		default:
			return
		}
		want = append(want, c)
		if !model.directed {
			c.Src, c.Dst = c.Dst, c.Src
			want = append(want, c)
		}
	}
	for k := range before {
		note(k)
	}
	for k := range model.edges {
		if _, ok := before[k]; !ok {
			note(k)
		}
	}
	slices.SortFunc(want, func(a, b Change) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
	if got := slices.Collect(Diff(pre, post)); !slices.Equal(got, want) {
		t.Fatalf("Diff of the flush = %+v, the model's net change %+v", got, want)
	}
	var rows []VID
	for _, c := range want {
		if len(rows) == 0 || rows[len(rows)-1] != c.Src {
			rows = append(rows, c.Src)
		}
	}
	if !slices.Equal(res.DirtyRows, rows) {
		t.Fatalf("DirtyRows = %v, the rows of the net change %v", res.DirtyRows, rows)
	}
}

// FuzzMutationEquivalence is the mutation conformance wall: an
// arbitrary batch stream applied through MutableCSR must read
// byte-equal to rebuilding the CSR from scratch over the logical edge
// set after every flush, the independent oracle, and Diff of each flush
// must be the model's net change, on every (directed × weighted) shape.
// The same flushes chain through (*CSR).Apply with no flattened read
// between them (overlay epochs, compacting past their bound), and must
// report the MutableCSR's ApplyResult, which does not depend on the
// parent's row form; an op byte 0xfe applies the pending ops to the
// current epoch's parent instead, a sibling: after every Apply each
// epoch made so far must read, accessor by accessor, as its rebuild
// (epochChain). Shape bit hubShape adds a hub to the graph; the last
// four seeds run hubProgram on one, which keeps its row as a delta.
func FuzzMutationEquivalence(f *testing.F) {
	f.Add(uint64(1), uint16(40), uint16(160), uint8(0), []byte{0, 1, 2, 50, 1, 2, 3, 0, 0xff, 0, 0, 0, 1, 1, 2, 0})
	f.Add(uint64(2), uint16(16), uint16(64), uint8(1), []byte{0, 5, 5, 10, 0, 5, 6, 10, 0, 5, 6, 5})
	f.Add(uint64(3), uint16(64), uint16(300), uint8(2), []byte{1, 0, 1, 0, 0, 0, 1, 99, 0xff, 9, 9, 9, 0, 1, 0, 30})
	f.Add(uint64(4), uint16(8), uint16(0), uint8(3), []byte{0, 1, 2, 77, 0, 2, 1, 33, 1, 1, 2, 0})
	f.Add(uint64(5), uint16(100), uint16(900), uint8(2), []byte{
		0, 1, 2, 50, 0xff, 0, 0, 0, 1, 3, 4, 0, 0, 5, 6, 7, 0xff, 0, 0, 0, 0, 7, 8, 9, 0xfe, 0, 0, 0,
		0, 9, 10, 11, 0xff, 0, 0, 0, 0, 1, 80, 1, 0, 2, 81, 1, 0, 3, 82, 1, 0, 4, 83, 1, 0, 5, 84, 1,
		0, 6, 85, 1, 0, 7, 86, 1, 0, 8, 87, 1, 0, 9, 88, 1, 0, 10, 89, 1, 0, 11, 90, 1, 0, 12, 91, 1})
	f.Add(uint64(6), uint16(60), uint16(600), uint8(1), []byte{
		0, 1, 2, 0, 0xff, 0, 0, 0, 1, 1, 2, 0, 0xfe, 0, 0, 0, 0, 3, 4, 0, 0xff, 0, 0, 0, 0, 5, 6, 0})
	for shape := range uint8(4) {
		f.Add(uint64(7), uint16(hubN-2), uint16(400), shape|hubShape, hubProgram())
	}
	f.Fuzz(func(t *testing.T, seed uint64, nSeed, mSeed uint16, shape uint8, ops []byte) {
		runMutationProgram(t, seed, nSeed, mSeed, shape, ops)
	})
}

// runMutationProgram is one FuzzMutationEquivalence input, and returns
// the chain it made.
func runMutationProgram(t *testing.T, seed uint64, nSeed, mSeed uint16, shape uint8, ops []byte) *epochChain {
	n := int(nSeed)%2048 + 2
	m := int(mSeed) % 1024
	directed := shape&1 != 0
	weighted := shape&2 != 0
	el := randomEdgeList(seed, n, m, weighted)
	el.Directed = directed
	if shape&hubShape != 0 {
		for v := 1; v < n; v++ {
			if v%10 != 0 {
				el.Edges = append(el.Edges, Edge{Src: 0, Dst: VID(v), W: float32(v%100+1) / 100})
			}
		}
	}
	c := buildNormalized(el)
	mc := NewMutableCSR(c, directed)
	model := newMutModelFromCSR(c, directed)
	chain := newEpochChain(t, c, directed)

	var batch Batch
	flush := func() {
		pre, before := mc.CSR(), maps.Clone(model.edges)
		res, err := mc.Apply(batch)
		if err != nil {
			t.Fatalf("Apply: %v", err)
		}
		model.apply(batch)
		want := model.rebuild()
		if !csrEqual(mc.CSR(), want) {
			t.Fatalf("stream diverges from rebuild-from-scratch (n=%d directed=%v weighted=%v, %d ops)", n, directed, weighted, len(batch))
		}
		checkNetChange(t, res, pre, mc.CSR(), before, model)
		chain.flush(batch, res, before, model, want)
		batch = batch[:0]
	}
	for i := 0; i+4 <= len(ops) && len(batch) < 512; i += 4 {
		switch ops[i] {
		case 0xff:
			flush()
			continue
		case 0xfe:
			chain.branch(batch)
			batch = batch[:0]
			continue
		}
		mu := Mutation{Src: VID(int(ops[i+1]) % n), Dst: VID(int(ops[i+2]) % n)}
		if ops[i]&1 == 0 {
			mu.Op = MutInsert
			if weighted {
				mu.W = float32(int(ops[i+3])%100+1) / 100
			}
		} else {
			mu.Op = MutDelete
		}
		batch = append(batch, mu)
	}
	flush()
	return chain
}

// hubShape is the shape bit of a FuzzMutationEquivalence graph with a
// hub: vertex 0 joined to every vertex but every tenth.
const hubShape = 4

// hubN is the vertex count of hubProgram's graph: twice the delta
// floor, so the hub row passes the rule.
const hubN = 2 * deltaMinDegree

// hubProgram is a FuzzMutationEquivalence program for a hubShape graph,
// whose hub row passes the delta-row rule: three epochs that change a
// few of the hub's entries each — a delete, a reweigh by duplicate
// insert, an entry that comes and goes again, one that comes and is
// then reweighed, a delete undone at another weight — a sibling of the
// third, and four batches that touch 255 rows each, the last of which
// at the latest compacts.
func hubProgram() []byte {
	var ops []byte
	op := func(code, u, v, w byte) { ops = append(ops, code, u, v, w) }
	flush := func() { op(0xff, 0, 0, 0) }
	op(1, 0, 5, 0)
	op(0, 0, 3, 0)
	op(0, 0, 7, 90)
	op(0, 0, 10, 50)
	op(0, 0, 20, 50)
	flush()
	op(0, 0, 5, 40)
	op(1, 0, 7, 0)
	op(0, 0, 7, 20)
	op(0, 0, 9, 1)
	op(1, 0, 15, 0)
	op(0, 0, 20, 20)
	op(0, 0, 30, 5)
	flush()
	op(1, 0, 11, 0)
	op(0, 0, 5, 0)
	op(1, 0, 13, 0)
	op(1, 0, 10, 0)
	flush()
	op(1, 0, 9, 0)
	op(0, 0, 13, 2)
	op(1, 0, 20, 0)
	op(0, 0, 40, 3)
	op(0xfe, 0, 0, 0)
	for step := 1; step <= 4; step++ {
		for v := 1; v < 255; v++ {
			op(0, byte(v), byte((v+step)%255+1), byte(v))
		}
		flush()
	}
	return ops
}

// The hub programs FuzzMutationEquivalence seeds with form delta rows:
// the hub row is a delta for at least three epochs before the last
// batch compacts it, on every (directed × weighted) shape.
func TestMutationHubProgramsFormDeltaRows(t *testing.T) {
	for shape := range uint8(4) {
		chain := runMutationProgram(t, 7, hubN-2, 400, shape|hubShape, hubProgram())
		if chain.deltaEpochs < 3 || chain.flats < 1 {
			t.Fatalf("shape %d: %d epochs held a delta row, %d were flat; want at least 3 and 1", shape, chain.deltaEpochs, chain.flats)
		}
	}
}
